package mlkit

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Trained models are exported to JSON so the collection/training binaries
// can hand a model to the scheduler binary, mirroring the paper's pickled
// scikit-learn models handed to the Flux plugin.

type serializedModel struct {
	Kind   string          `json:"kind"`
	Tree   *treePayload    `json:"tree,omitempty"`
	Forest *forestPayload  `json:"forest,omitempty"`
	Ada    *adaPayload     `json:"adaboost,omitempty"`
	KNN    *knnPayload     `json:"knn,omitempty"`
	Meta   json.RawMessage `json:"meta,omitempty"`
}

type treePayload struct {
	Config      TreeConfig `json:"config"`
	Classes     []int      `json:"classes"`
	NFeatures   int        `json:"n_features"`
	Nodes       []treeNode `json:"nodes"`
	Importances []float64  `json:"importances"`
	Name        string     `json:"name"`
}

type forestPayload struct {
	Config      ForestConfig  `json:"config"`
	Bootstrap   bool          `json:"bootstrap"`
	RandomThr   bool          `json:"random_threshold"`
	Name        string        `json:"name"`
	Classes     []int         `json:"classes"`
	Trees       []treePayload `json:"trees"`
	Importances []float64     `json:"importances"`
}

type adaPayload struct {
	Config      AdaBoostConfig `json:"config"`
	Classes     []int          `json:"classes"`
	Stumps      []stump        `json:"stumps"`
	Trees       []treePayload  `json:"trees,omitempty"`
	Alphas      []float64      `json:"alphas"`
	Importances []float64      `json:"importances"`
}

type knnPayload struct {
	Config  KNNConfig   `json:"config"`
	X       [][]float64 `json:"x"`
	Y       []int       `json:"y"`
	Classes []int       `json:"classes"`
	Scaler  *Scaler     `json:"scaler"`
}

var errMissingPayload = errors.New("missing payload")

func treeToPayload(t *Tree) treePayload {
	return treePayload{
		Config:      t.cfg,
		Classes:     t.classes,
		NFeatures:   t.nFeatures,
		Nodes:       t.nodes,
		Importances: t.imp,
		Name:        t.name,
	}
}

// treeFromPayload checks everything Tree.PredictProba relies on — a
// payload is outside input (rush-serve's swap op feeds LoadModel wire
// bytes) — and names the offending field. Requiring every child index to
// exceed its parent's is what the builders produce and rules out cycles.
func treeFromPayload(p *treePayload) (*Tree, error) {
	if p == nil {
		return nil, errMissingPayload
	}
	if len(p.Classes) == 0 {
		return nil, errors.New("classes is empty")
	}
	if len(p.Nodes) == 0 {
		return nil, errors.New("nodes is empty")
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Probs != nil {
			if len(n.Probs) != len(p.Classes) {
				return nil, fmt.Errorf("nodes[%d].Probs has %d entries for %d classes", i, len(n.Probs), len(p.Classes))
			}
			continue
		}
		if n.Feature < 0 || n.Feature >= p.NFeatures {
			return nil, fmt.Errorf("nodes[%d].Feature = %d outside [0, n_features = %d)", i, n.Feature, p.NFeatures)
		}
		if n.Left <= i || n.Left >= len(p.Nodes) {
			return nil, fmt.Errorf("nodes[%d].Left = %d outside (%d, %d)", i, n.Left, i, len(p.Nodes))
		}
		if n.Right <= i || n.Right >= len(p.Nodes) {
			return nil, fmt.Errorf("nodes[%d].Right = %d outside (%d, %d)", i, n.Right, i, len(p.Nodes))
		}
	}
	return &Tree{
		cfg:       p.Config,
		classes:   p.Classes,
		nFeatures: p.NFeatures,
		nodes:     p.Nodes,
		imp:       p.Importances,
		name:      p.Name,
	}, nil
}

// treesFromPayload loads an ensemble's trees. Every tree must read the
// same width feature vectors, and every tree class must pass okClass
// (membership in the forest's classes; an index into the booster's).
func treesFromPayload(ps []treePayload, width int, okClass func(c int) bool) ([]*Tree, error) {
	trees := make([]*Tree, len(ps))
	for i := range ps {
		t, err := treeFromPayload(&ps[i])
		if err != nil {
			return nil, fmt.Errorf("trees[%d].%w", i, err)
		}
		if t.nFeatures != width {
			return nil, fmt.Errorf("trees[%d].n_features = %d, want %d", i, t.nFeatures, width)
		}
		for _, c := range t.classes {
			if !okClass(c) {
				return nil, fmt.Errorf("trees[%d].classes has %d, which the ensemble's classes do not cover", i, c)
			}
		}
		trees[i] = t
	}
	return trees, nil
}

func forestFromPayload(p *forestPayload) (*Forest, error) {
	if p == nil {
		return nil, errMissingPayload
	}
	if len(p.Classes) == 0 {
		return nil, errors.New("classes is empty")
	}
	if len(p.Trees) == 0 {
		return nil, errors.New("trees is empty")
	}
	member := map[int]bool{}
	for _, c := range p.Classes {
		member[c] = true
	}
	trees, err := treesFromPayload(p.Trees, p.Trees[0].NFeatures, func(c int) bool { return member[c] })
	if err != nil {
		return nil, err
	}
	f := &Forest{
		cfg:       p.Config,
		bootstrap: p.Bootstrap,
		randomThr: p.RandomThr,
		name:      p.Name,
		classes:   p.Classes,
		imp:       p.Importances,
		trees:     trees,
	}
	f.compile()
	return f, nil
}

func adaFromPayload(p *adaPayload) (*AdaBoost, error) {
	if p == nil {
		return nil, errMissingPayload
	}
	k, width := len(p.Classes), len(p.Importances)
	if k == 0 {
		return nil, errors.New("classes is empty")
	}
	if len(p.Stumps) > 0 && len(p.Trees) > 0 {
		return nil, errors.New("stumps and trees are both set")
	}
	if n := len(p.Stumps) + len(p.Trees); n == 0 || len(p.Alphas) != n {
		return nil, fmt.Errorf("alphas has %d entries for %d weak learners", len(p.Alphas), n)
	}
	for i, st := range p.Stumps {
		switch {
		case st.Feature < 0 || st.Feature >= width:
			return nil, fmt.Errorf("stumps[%d].Feature = %d outside [0, len(importances) = %d)", i, st.Feature, width)
		case st.LeftClass < 0 || st.LeftClass >= k:
			return nil, fmt.Errorf("stumps[%d].LeftClass = %d outside [0, %d)", i, st.LeftClass, k)
		case st.RightClass < 0 || st.RightClass >= k:
			return nil, fmt.Errorf("stumps[%d].RightClass = %d outside [0, %d)", i, st.RightClass, k)
		}
	}
	trees, err := treesFromPayload(p.Trees, width, func(c int) bool { return c >= 0 && c < k })
	if err != nil {
		return nil, err
	}
	return &AdaBoost{
		cfg:     p.Config,
		classes: p.Classes,
		stumps:  p.Stumps,
		trees:   trees,
		alphas:  p.Alphas,
		imp:     p.Importances,
	}, nil
}

func knnFromPayload(p *knnPayload) (*KNN, error) {
	if p == nil {
		return nil, errMissingPayload
	}
	if len(p.Classes) == 0 {
		return nil, errors.New("classes is empty")
	}
	if p.Config.K < 1 {
		return nil, fmt.Errorf("config.K = %d, want at least 1", p.Config.K)
	}
	if len(p.X) == 0 || len(p.X) != len(p.Y) {
		return nil, fmt.Errorf("x has %d rows for %d labels in y", len(p.X), len(p.Y))
	}
	width := len(p.X[0])
	for i, row := range p.X {
		if len(row) != width {
			return nil, fmt.Errorf("x[%d] has %d features, x[0] has %d", i, len(row), width)
		}
	}
	if p.Scaler == nil || len(p.Scaler.Mean) != width || len(p.Scaler.Std) != width {
		return nil, fmt.Errorf("scaler does not cover the %d features of x", width)
	}
	return &KNN{cfg: p.Config, x: p.X, y: p.Y, classes: p.Classes, scaler: p.Scaler}, nil
}

// SaveModel serializes a trained classifier to JSON. Supported concrete
// types: *Tree, *Forest, *AdaBoost, *KNN.
func SaveModel(c Classifier) ([]byte, error) {
	var sm serializedModel
	switch m := c.(type) {
	case *Tree:
		sm.Kind = "tree"
		p := treeToPayload(m)
		sm.Tree = &p
	case *Forest:
		sm.Kind = "forest"
		fp := forestPayload{
			Config:      m.cfg,
			Bootstrap:   m.bootstrap,
			RandomThr:   m.randomThr,
			Name:        m.name,
			Classes:     m.classes,
			Importances: m.imp,
		}
		for _, t := range m.trees {
			fp.Trees = append(fp.Trees, treeToPayload(t))
		}
		sm.Forest = &fp
	case *AdaBoost:
		sm.Kind = "adaboost"
		ap := &adaPayload{
			Config:      m.cfg,
			Classes:     m.classes,
			Stumps:      m.stumps,
			Alphas:      m.alphas,
			Importances: m.imp,
		}
		for _, t := range m.trees {
			ap.Trees = append(ap.Trees, treeToPayload(t))
		}
		sm.Ada = ap
	case *KNN:
		sm.Kind = "knn"
		sm.KNN = &knnPayload{
			Config:  m.cfg,
			X:       m.x,
			Y:       m.y,
			Classes: m.classes,
			Scaler:  m.scaler,
		}
	default:
		return nil, fmt.Errorf("mlkit: cannot serialize %T", c)
	}
	return json.Marshal(sm)
}

// LoadModel deserializes a classifier saved by SaveModel. It rejects,
// with an error naming the field, any payload on which inference could
// index out of range or fail to terminate: whatever it returns predicts
// a sample of NumFeatures() entries without panicking.
func LoadModel(data []byte) (Classifier, error) {
	var sm serializedModel
	if err := json.Unmarshal(data, &sm); err != nil {
		return nil, fmt.Errorf("mlkit: decode model: %w", err)
	}
	var c Classifier
	var err error
	switch sm.Kind {
	case "tree":
		c, err = treeFromPayload(sm.Tree)
	case "forest":
		c, err = forestFromPayload(sm.Forest)
	case "adaboost":
		c, err = adaFromPayload(sm.Ada)
	case "knn":
		c, err = knnFromPayload(sm.KNN)
	default:
		return nil, fmt.Errorf("mlkit: unknown model kind %q", sm.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("mlkit: %s model: %w", sm.Kind, err)
	}
	return c, nil
}
