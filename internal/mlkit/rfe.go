package mlkit

import (
	"fmt"
	"sort"
)

// RFEConfig controls recursive feature elimination.
type RFEConfig struct {
	// Step is the fraction of remaining features dropped per iteration
	// (default 0.1).
	Step float64
	// MinFeatures stops elimination once this many features remain
	// (default 8).
	MinFeatures int
	// Folds is the stratified CV fold count used to score each feature
	// set (default 3).
	Folds int
	// Seed drives the CV splits.
	Seed int64
}

// rfePositive is the class whose F1 RFE maximizes: 1, the paper's binary
// "variation" label.
const rfePositive = 1

func (c *RFEConfig) fill() {
	if c.Step <= 0 || c.Step >= 1 {
		c.Step = 0.1
	}
	if c.MinFeatures < 1 {
		c.MinFeatures = 8
	}
	if c.Folds < 2 {
		c.Folds = 3
	}
}

// RFEResult records one elimination trajectory.
type RFEResult struct {
	// Selected is the best-scoring feature subset (original column
	// indices, ascending).
	Selected []int
	// BestF1 is the CV F1 of the selected subset.
	BestF1 float64
	// Trajectory records (feature count, F1) at each iteration, from all
	// features down to MinFeatures.
	Trajectory []RFEStep
}

// RFEStep is one point of the elimination trajectory.
type RFEStep struct {
	NumFeatures int
	F1          float64
}

// RFE performs recursive feature elimination: repeatedly train the model,
// rank features, drop the least important ones, and keep the subset with
// the highest cross-validated F1 — the paper's feature-selection
// procedure. Models that implement ImportanceReporter (the tree
// ensembles and AdaBoost) are ranked by their native importances; other
// models fall back to a univariate class-separation score, mirroring the
// paper's note that importance-based elimination applies to Extra Trees
// and Decision Forest.
func RFE(factory func() Classifier, x [][]float64, y []int, cfg RFEConfig) (RFEResult, error) {
	cfg.fill()
	if _, err := validateXY(x, y); err != nil {
		return RFEResult{}, err
	}
	nf := len(x[0])
	active := make([]int, nf)
	for i := range active {
		active[i] = i
	}

	var res RFEResult
	for {
		sub := SelectColumns(x, active)
		folds, err := StratifiedKFold(y, cfg.Folds, cfg.Seed)
		if err != nil {
			return res, err
		}
		cv, err := CrossValidate(factory, sub, y, folds, rfePositive)
		if err != nil {
			return res, fmt.Errorf("mlkit: rfe at %d features: %w", len(active), err)
		}
		f1 := cv.MeanF1()
		res.Trajectory = append(res.Trajectory, RFEStep{NumFeatures: len(active), F1: f1})
		if f1 > res.BestF1 || res.Selected == nil {
			res.BestF1 = f1
			res.Selected = append([]int(nil), active...)
		}
		if len(active) <= cfg.MinFeatures {
			break
		}

		// Rank current features: native importances when available.
		m := factory()
		if err := m.Fit(sub, y); err != nil {
			return res, err
		}
		var scores []float64
		if ir, ok := m.(ImportanceReporter); ok {
			scores = ir.Importances()
		} else {
			scores = univariateScores(sub, y)
		}

		drop := int(float64(len(active)) * cfg.Step)
		if drop < 1 {
			drop = 1
		}
		if len(active)-drop < cfg.MinFeatures {
			drop = len(active) - cfg.MinFeatures
		}
		order := make([]int, len(active))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
		dropped := map[int]bool{}
		for _, i := range order[:drop] {
			dropped[i] = true
		}
		next := make([]int, 0, len(active)-drop)
		for i, col := range active {
			if !dropped[i] {
				next = append(next, col)
			}
		}
		active = next
	}
	sort.Ints(res.Selected)
	return res, nil
}

// univariateScores ranks each feature by the absolute standardized
// difference between class means (a cheap Fisher-style score) for models
// without native importances.
func univariateScores(x [][]float64, y []int) []float64 {
	nf := len(x[0])
	classes := classSet(y)
	scores := make([]float64, nf)
	for f := 0; f < nf; f++ {
		// Overall mean/std.
		var mean, m2 float64
		for i, row := range x {
			d := row[f] - mean
			mean += d / float64(i+1)
			m2 += d * (row[f] - mean)
		}
		std := 0.0
		if len(x) > 1 {
			std = m2 / float64(len(x)-1)
		}
		if std <= 0 {
			continue
		}
		// Max pairwise class-mean separation.
		var classMeans []float64
		for _, c := range classes {
			var s float64
			var n int
			for i, row := range x {
				if y[i] == c {
					s += row[f]
					n++
				}
			}
			if n > 0 {
				classMeans = append(classMeans, s/float64(n))
			}
		}
		var maxSep float64
		for i := range classMeans {
			for j := i + 1; j < len(classMeans); j++ {
				sep := classMeans[i] - classMeans[j]
				if sep < 0 {
					sep = -sep
				}
				if sep > maxSep {
					maxSep = sep
				}
			}
		}
		scores[f] = maxSep * maxSep / std
	}
	return scores
}
