package core

import (
	"fmt"
	"time"

	"rush/internal/dataset"
	"rush/internal/mlkit"
	"rush/internal/obs"
)

// ModelName identifies one of the paper's four candidate classifiers.
type ModelName string

// The candidate models of Figure 3.
const (
	ModelExtraTrees     ModelName = "ExtraTrees"
	ModelDecisionForest ModelName = "DecisionForest"
	ModelKNN            ModelName = "KNN"
	ModelAdaBoost       ModelName = "AdaBoost"
)

// AllModels lists the candidates in Figure 3 order.
func AllModels() []ModelName {
	return []ModelName{ModelExtraTrees, ModelDecisionForest, ModelKNN, ModelAdaBoost}
}

// NewModel constructs an untrained classifier by name with the
// configuration used throughout the evaluation.
func NewModel(name ModelName, seed int64) (mlkit.Classifier, error) {
	switch name {
	case ModelExtraTrees:
		return mlkit.NewExtraTrees(mlkit.ForestConfig{Trees: 60, MaxDepth: 14, Seed: seed}), nil
	case ModelDecisionForest:
		return mlkit.NewRandomForest(mlkit.ForestConfig{Trees: 60, MaxDepth: 12, Seed: seed}), nil
	case ModelKNN:
		return mlkit.NewKNN(mlkit.KNNConfig{K: 7}), nil
	case ModelAdaBoost:
		return mlkit.NewAdaBoost(mlkit.AdaBoostConfig{Rounds: 150}), nil
	default:
		return nil, fmt.Errorf("core: unknown model %q", name)
	}
}

// ModelScore is one bar of Figure 3: a model's cross-validated binary F1
// under one data-exclusivity scope.
type ModelScore struct {
	Model    ModelName
	Scope    string // "job-nodes" or "all-nodes"
	F1       float64
	Accuracy float64
}

// CompareModels reproduces Figure 3's protocol on one dataset scope:
// binary variation labels, leave-one-application-out cross-validation
// (train on six apps, validate on the seventh, over every partition),
// averaged F1.
func CompareModels(ds *dataset.Dataset, scope string, seed int64) ([]ModelScore, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	x := ds.X()
	y := ds.BinaryLabels()
	_, folds := mlkit.LeaveOneGroupOut(ds.AppNames())

	var out []ModelScore
	for _, name := range AllModels() {
		name := name
		cv, err := mlkit.CrossValidate(func() mlkit.Classifier {
			m, err := NewModel(name, seed)
			if err != nil {
				panic(err) // unreachable: name comes from AllModels
			}
			return m
		}, x, y, folds, 1)
		if err != nil {
			return nil, fmt.Errorf("core: cross-validating %s: %w", name, err)
		}
		out = append(out, ModelScore{
			Model:    name,
			Scope:    scope,
			F1:       cv.MeanF1(),
			Accuracy: cv.MeanAccuracy(),
		})
	}
	return out, nil
}

// SelectBest returns the highest-F1 score row (the paper selects
// AdaBoost this way).
func SelectBest(scores []ModelScore) (ModelScore, error) {
	if len(scores) == 0 {
		return ModelScore{}, fmt.Errorf("core: no scores to select from")
	}
	best := scores[0]
	for _, s := range scores[1:] {
		if s.F1 > best.F1 {
			best = s
		}
	}
	return best, nil
}

// Predictor is the trained artifact the scheduler consumes: the deployed
// three-class model plus the per-application run-time statistics needed
// to judge variation in experiments.
type Predictor struct {
	// Model is the deployed three-class classifier.
	Model mlkit.Classifier
	// ModelName records which candidate was deployed.
	ModelName ModelName
	// Stats are per-application run-time statistics of the training
	// data, used by the evaluation to count runs experiencing variation.
	Stats map[string]dataset.AppStat
	// CVF1 is the stratified k-fold F1 (variation class) of the deployed
	// model on its training data.
	CVF1 float64
}

// TrainPredictor trains the deployed model (Section IV-A's second stage):
// the chosen classifier fit on three-class labels (no variation below
// 1.2 sigma, little variation to 1.5, variation beyond) with stratified
// k-fold cross-validation for the reported score. trainApps, when
// non-empty, restricts the training data to those applications (the PDPA
// experiment).
func TrainPredictor(ds *dataset.Dataset, name ModelName, trainApps []string, seed int64) (*Predictor, error) {
	return TrainPredictorObserved(ds, name, trainApps, seed, nil)
}

// TrainPredictorObserved is TrainPredictor with training-cost metrics
// recorded into reg (nil-safe, zero overhead when nil): wall time spent
// in cross-validation and in the deployed fit, the number of Fit calls,
// and the number of tree nodes the deployed model grew.
func TrainPredictorObserved(ds *dataset.Dataset, name ModelName, trainApps []string, seed int64, reg *obs.Registry) (*Predictor, error) {
	// Reference statistics always cover every application: the paper's
	// PDPA experiment withholds apps from the *model*, but variation is
	// still judged against each app's own historical distribution.
	fullStats := ds.Stats()
	if len(trainApps) > 0 {
		ds = ds.FilterApps(trainApps...)
	}
	if ds.Len() < 20 {
		return nil, fmt.Errorf("core: only %d training samples", ds.Len())
	}
	if _, err := NewModel(name, seed); err != nil {
		return nil, err
	}
	x := ds.X()
	y := ds.ThreeClassLabels()

	folds, err := mlkit.StratifiedKFold(y, 5, seed)
	var cvF1 float64
	if err == nil {
		var cvStart time.Time
		if reg != nil {
			cvStart = time.Now()
		}
		cv, cvErr := mlkit.CrossValidate(func() mlkit.Classifier {
			m, _ := NewModel(name, seed)
			reg.Counter("train_fit_calls").Inc()
			return m
		}, x, y, folds, dataset.LabelVariation)
		if cvErr == nil {
			cvF1 = cv.MeanF1()
		}
		if reg != nil {
			reg.Counter("train_cv_wall_us").Add(uint64(time.Since(cvStart).Microseconds()))
		}
	}

	model, err := NewModel(name, seed)
	if err != nil {
		return nil, err
	}
	var fitStart time.Time
	if reg != nil {
		fitStart = time.Now()
	}
	if err := model.Fit(x, y); err != nil {
		return nil, fmt.Errorf("core: training deployed model: %w", err)
	}
	if reg != nil {
		reg.Counter("train_fit_wall_us").Add(uint64(time.Since(fitStart).Microseconds()))
		reg.Counter("train_fit_calls").Inc()
		reg.Counter("train_nodes_grown").Add(uint64(mlkit.ModelNodes(model)))
	}
	return &Predictor{
		Model:     model,
		ModelName: name,
		Stats:     fullStats,
		CVF1:      cvF1,
	}, nil
}
