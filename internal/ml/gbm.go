package ml

import (
	"errors"
	"math"
)

// gbmBins is the histogram resolution of the GBM's weak learners (the
// RegressionTree default). It must fit a uint8 bin id for the root
// quantization fast path.
const gbmBins = 32

// GBM is a gradient boosting machine over regression trees. With the
// logistic loss it is the Figure-4 GBM classifier; with the squared loss
// it is the regression model LRB trains to predict next-access distances.
//
// All fit state — boosted scores, residuals, the shared tree-growing
// scratch and the weak learners themselves — lives on the GBM and is
// reused across fits, so retraining on same-shaped data (the LRB loop:
// one refit every TrainEvery labels) allocates nothing in steady state.
type GBM struct {
	// Trees is the ensemble size (default 50).
	Trees int
	// Depth is the per-tree depth (default 4).
	Depth int
	// LR is the shrinkage (default 0.1).
	LR float64
	// MinLeaf is the minimum samples per leaf (default 8).
	MinLeaf int
	// Squared selects squared loss (regression) instead of logistic.
	Squared bool

	base  float64
	trees []*RegressionTree

	pool    []*RegressionTree // recycled weak learners backing trees
	f       []float64         // boosted score per row
	resid   []float64         // pseudo-residuals per round
	scratch fitScratch        // shared tree-growing buffers
}

// Name implements Classifier.
func (m *GBM) Name() string { return "GBM" }

func (m *GBM) defaults() {
	if m.Trees <= 0 {
		m.Trees = 50
	}
	if m.Depth <= 0 {
		m.Depth = 4
	}
	if m.LR <= 0 {
		m.LR = 0.1
	}
	if m.MinLeaf <= 0 {
		m.MinLeaf = 8
	}
}

// Fit implements Classifier (logistic loss unless Squared is set).
func (m *GBM) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	return m.FitRegression(&d.X, d.Y)
}

// FitRegression trains on raw targets. With the logistic loss targets must
// be 0/1; with Squared they may be arbitrary. The refit is itself on the
// LRB hot path (label -> FitRegression every TrainEvery samples), so
// steady-state refits must reuse the pooled buffers (TestGBMRefitNoAllocs).
func (m *GBM) FitRegression(X *Matrix, y []float64) error {
	n := X.Rows()
	if n == 0 {
		return errors.New("ml: empty dataset")
	}
	m.defaults()
	m.trees = m.trees[:0]
	// Base score.
	s := 0.0
	for _, v := range y {
		s += v
	}
	avg := s / float64(n)
	if m.Squared {
		m.base = avg
	} else {
		p := math.Min(math.Max(avg, 1e-6), 1-1e-6)
		m.base = math.Log(p / (1 - p))
	}
	m.f = growFloats(m.f, n)
	for i := range m.f {
		m.f[i] = m.base
	}
	m.resid = growFloats(m.resid, n)
	sc := &m.scratch
	sc.ensure(n, X.Cols, gbmBins)
	sc.prepareRoot(X, gbmBins)
	// Leaves fold lr·value into f as they are created, replacing the old
	// per-row re-traversal of each freshly fitted tree.
	sc.score, sc.lr = m.f, m.LR
	for t := 0; t < m.Trees; t++ {
		for i := range m.resid {
			if m.Squared {
				m.resid[i] = y[i] - m.f[i]
			} else {
				m.resid[i] = y[i] - sigmoid(m.f[i])
			}
		}
		tree := m.tree(t)
		// The previous tree's growth partitioned the shared permutation;
		// refill the values (the slice itself is built once per fit).
		sc.fillIdx(n)
		tree.fit(X, m.resid, sc, n)
		m.trees = append(m.trees, tree)
	}
	sc.score, sc.rootReady = nil, false
	return nil
}

// tree returns the i-th pooled weak learner, creating it on first use and
// re-stamping the hyperparameters on reuse.
func (m *GBM) tree(i int) *RegressionTree {
	if i == len(m.pool) {
		m.pool = append(m.pool, &RegressionTree{})
	}
	t := m.pool[i]
	t.MaxDepth, t.MinLeaf, t.Bins = m.Depth, m.MinLeaf, gbmBins
	return t
}

// PredictRaw returns the raw additive score (log-odds for logistic loss,
// the regression value for squared loss).
func (m *GBM) PredictRaw(x []float64) float64 {
	f := m.base
	for _, t := range m.trees {
		f += m.LR * t.Predict(x)
	}
	return f
}

// Predict implements Classifier: a probability for logistic loss, the raw
// value for squared loss.
func (m *GBM) Predict(x []float64) float64 {
	if m.Squared {
		return m.PredictRaw(x)
	}
	return sigmoid(m.PredictRaw(x))
}

// NumTrees reports the trained ensemble size.
func (m *GBM) NumTrees() int { return len(m.trees) }
