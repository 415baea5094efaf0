package core

import (
	"encoding/json"
	"fmt"

	"rush/internal/dataset"
	"rush/internal/mlkit"
)

// predictorFile is the on-disk form of a trained Predictor, mirroring the
// paper's pickled model handed from the training pipeline to the Flux
// plugin.
type predictorFile struct {
	ModelName ModelName                  `json:"model_name"`
	Model     json.RawMessage            `json:"model"`
	Stats     map[string]dataset.AppStat `json:"stats"`
	CVF1      float64                    `json:"cv_f1"`
}

// Save serializes the predictor to JSON.
func (p *Predictor) Save() ([]byte, error) {
	if p.Model == nil {
		return nil, fmt.Errorf("core: predictor has no model")
	}
	blob, err := mlkit.SaveModel(p.Model)
	if err != nil {
		return nil, fmt.Errorf("core: save predictor: %w", err)
	}
	return json.MarshalIndent(predictorFile{
		ModelName: p.ModelName,
		Model:     blob,
		Stats:     p.Stats,
		CVF1:      p.CVF1,
	}, "", " ")
}

// LoadPredictor deserializes a predictor saved with Save. Keys it does
// not know, such as the "reference" profile older files carry, are
// ignored.
func LoadPredictor(data []byte) (*Predictor, error) {
	var pf predictorFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("core: decode predictor: %w", err)
	}
	model, err := mlkit.LoadModel(pf.Model)
	if err != nil {
		return nil, fmt.Errorf("core: load predictor model: %w", err)
	}
	return &Predictor{
		Model:     model,
		ModelName: pf.ModelName,
		Stats:     pf.Stats,
		CVF1:      pf.CVF1,
	}, nil
}
