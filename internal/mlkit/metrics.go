package mlkit

import "fmt"

// Confusion is a confusion matrix over classes 0..K-1; Counts[i][j] is
// the number of samples with true class i predicted as class j.
type Confusion struct {
	Counts [][]int
}

// NewConfusion builds a confusion matrix from true and predicted labels.
// The matrix is sized to the largest label seen in either slice.
func NewConfusion(yTrue, yPred []int) (*Confusion, error) {
	if len(yTrue) != len(yPred) {
		return nil, fmt.Errorf("mlkit: %d true labels but %d predictions", len(yTrue), len(yPred))
	}
	k := 0
	for i := range yTrue {
		if yTrue[i] < 0 || yPred[i] < 0 {
			return nil, fmt.Errorf("mlkit: negative label at %d", i)
		}
		if yTrue[i] >= k {
			k = yTrue[i] + 1
		}
		if yPred[i] >= k {
			k = yPred[i] + 1
		}
	}
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	for i := range yTrue {
		counts[yTrue[i]][yPred[i]]++
	}
	return &Confusion{Counts: counts}, nil
}

// Accuracy returns the fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	var correct, total int
	for i := range c.Counts {
		for j, n := range c.Counts[i] {
			total += n
			if i == j {
				correct += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// PrecisionRecall returns precision and recall treating class pos as the
// positive class. Degenerate denominators yield zero.
func (c *Confusion) PrecisionRecall(pos int) (precision, recall float64) {
	if pos < 0 || pos >= len(c.Counts) {
		return 0, 0
	}
	var tp, fp, fn int
	for i := range c.Counts {
		for j, n := range c.Counts[i] {
			switch {
			case i == pos && j == pos:
				tp += n
			case i != pos && j == pos:
				fp += n
			case i == pos && j != pos:
				fn += n
			}
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

// F1 returns the F-measure for class pos, the paper's model-selection
// metric: F1 = tp / (tp + (fp+fn)/2).
func (c *Confusion) F1(pos int) float64 {
	p, r := c.PrecisionRecall(pos)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// F1Score is a convenience wrapper: the F1 of class pos computed directly
// from label slices.
func F1Score(yTrue, yPred []int, pos int) float64 {
	c, err := NewConfusion(yTrue, yPred)
	if err != nil {
		return 0
	}
	return c.F1(pos)
}

// Accuracy is a convenience wrapper computing accuracy from label slices.
func Accuracy(yTrue, yPred []int) float64 {
	c, err := NewConfusion(yTrue, yPred)
	if err != nil {
		return 0
	}
	return c.Accuracy()
}
