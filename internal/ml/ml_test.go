package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// linearlySeparable builds a dataset where y = 1 iff 2*x0 - x1 + 0.3 > 0,
// with light noise-free margins.
func linearlySeparable(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()}
		y := 0.0
		if 2*x[0]-x[1]+0.3 > 0 {
			y = 1
		}
		d.Append(x, y)
	}
	return d
}

// xorLike builds a dataset only nonlinear models can fit: y = 1 iff
// x0 and x1 have the same sign.
func xorLike(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := 0.0
		if (x[0] > 0) == (x[1] > 0) {
			y = 1
		}
		d.Append(x, y)
	}
	return d
}

func classifiers(seed int64) []Classifier {
	return []Classifier{
		&LinReg{},
		&LogReg{Seed: seed},
		&SVM{Seed: seed},
		&NN{Hidden: 32, Seed: seed},
		&GBM{Trees: 40},
		&Bandit{Seed: seed},
	}
}

func TestAllClassifiersOnSeparableData(t *testing.T) {
	d := linearlySeparable(2000, 1)
	train, test := d.Split(0.7, 2)
	for _, c := range classifiers(3) {
		if err := c.Fit(train); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		acc := Accuracy(c, test)
		if acc < 0.80 {
			t.Errorf("%s: accuracy %.3f < 0.80 on separable data", c.Name(), acc)
		}
	}
}

func TestNonlinearModelsOnXOR(t *testing.T) {
	d := xorLike(3000, 5)
	train, test := d.Split(0.7, 6)
	for _, c := range []Classifier{&NN{Hidden: 32, Seed: 7, Epochs: 60}, &GBM{Trees: 60}, &Bandit{Seed: 7}} {
		if err := c.Fit(train); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		acc := Accuracy(c, test)
		if acc < 0.85 {
			t.Errorf("%s: accuracy %.3f < 0.85 on XOR data", c.Name(), acc)
		}
	}
	// Sanity: a linear model cannot do much better than chance here.
	lin := &LogReg{Seed: 8}
	if err := lin.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(lin, test); acc > 0.65 {
		t.Errorf("LogReg accuracy %.3f on XOR — test data is not XOR-like", acc)
	}
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{X: Matrix{Data: []float64{1, 2, 3}, Cols: 2}, Y: []float64{0, 1}}
	if err := d.Validate(); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	d2 := &Dataset{X: Matrix{Data: []float64{1, 2}, Cols: 2}, Y: []float64{0, 1}}
	if err := d2.Validate(); err == nil {
		t.Fatal("row/label mismatch accepted")
	}
}

func TestFitEmptyDatasetFails(t *testing.T) {
	for _, c := range classifiers(1) {
		if err := c.Fit(&Dataset{}); err == nil {
			t.Errorf("%s: Fit on empty dataset succeeded", c.Name())
		}
	}
}

func TestSplitPartitions(t *testing.T) {
	d := linearlySeparable(100, 1)
	train, test := d.Split(0.8, 3)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d, want 80/20", train.Len(), test.Len())
	}
}

func TestStandardize(t *testing.T) {
	d := &Dataset{X: Matrix{Data: []float64{1, 10, 3, 20, 5, 30}, Cols: 2}, Y: []float64{0, 1, 0}}
	mean, std := d.Standardize()
	if math.Abs(mean[0]-3) > 1e-9 || math.Abs(mean[1]-20) > 1e-9 {
		t.Fatalf("means %v", mean)
	}
	for j := 0; j < 2; j++ {
		var m, v float64
		for i := 0; i < d.Len(); i++ {
			m += d.Row(i)[j]
		}
		m /= 3
		for i := 0; i < d.Len(); i++ {
			v += (d.Row(i)[j] - m) * (d.Row(i)[j] - m)
		}
		if math.Abs(m) > 1e-9 || math.Abs(v/3-1) > 1e-9 {
			t.Fatalf("feature %d not standardised: mean=%g var=%g", j, m, v/3)
		}
	}
	_ = std
}

func TestStandardizeConstantFeature(t *testing.T) {
	d := &Dataset{X: Matrix{Data: []float64{7, 7}, Cols: 1}, Y: []float64{0, 1}}
	_, std := d.Standardize()
	if std[0] != 1 {
		t.Fatalf("constant feature std = %g, want fallback 1", std[0])
	}
	for _, v := range d.X.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf after scaling constant feature")
		}
	}
}

func TestLinRegRecoverCoefficients(t *testing.T) {
	// y = 0.5*x0 - 0.25*x1 + 0.1, noiseless.
	rng := rand.New(rand.NewSource(9))
	d := &Dataset{}
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d.Append(x, 0.5*x[0]-0.25*x[1]+0.1)
	}
	m := &LinReg{}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.w[0]-0.5) > 0.02 || math.Abs(m.w[1]+0.25) > 0.02 || math.Abs(m.w[2]-0.1) > 0.02 {
		t.Fatalf("recovered weights %v", m.w)
	}
}

func TestTreePredictsConstantRegions(t *testing.T) {
	X := Matrix{Data: []float64{0, 1, 2, 3, 10, 11, 12, 13}, Cols: 1}
	y := []float64{1, 1, 1, 1, 5, 5, 5, 5}
	tr := &RegressionTree{MaxDepth: 2, MinLeaf: 1}
	tr.Fit(&X, y)
	if got := tr.Predict([]float64{1.5}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("left region predicts %g, want 1", got)
	}
	if got := tr.Predict([]float64{11.5}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("right region predicts %g, want 5", got)
	}
	if len(tr.nodes) == 0 || tr.nodes[0].leaf {
		t.Fatal("tree did not split")
	}
}

func TestTreeUnfittedPredictZero(t *testing.T) {
	tr := &RegressionTree{}
	if tr.Predict([]float64{1}) != 0 {
		t.Fatal("unfitted tree should predict 0")
	}
}

func TestGBMRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var X Matrix
	var y []float64
	for i := 0; i < 1500; i++ {
		x := []float64{rng.Float64() * 10}
		X.AppendRow(x)
		y = append(y, math.Sin(x[0]))
	}
	m := &GBM{Squared: true, Trees: 150, Depth: 3}
	if err := m.FitRegression(&X, y); err != nil {
		t.Fatal(err)
	}
	mse := 0.0
	for i := 0; i < X.Rows(); i++ {
		d := m.Predict(X.Row(i)) - y[i]
		mse += d * d
	}
	mse /= float64(X.Rows())
	if mse > 0.02 {
		t.Fatalf("GBM regression MSE %.4f > 0.02", mse)
	}
	if len(m.trees) != 150 {
		t.Fatalf("trained %d trees, want 150", len(m.trees))
	}
}

func TestGaussSingular(t *testing.T) {
	a := []float64{1, 1, 2, 1, 1, 2} // singular 2x2, stride 3
	w := make([]float64, 2)
	if err := solveGauss(a, 2, w); err == nil {
		t.Fatal("singular system solved")
	}
}

// Property: predictions of every model stay within [0,1] for arbitrary
// inputs after training.
func TestPredictRangeProperty(t *testing.T) {
	d := linearlySeparable(400, 21)
	models := classifiers(22)
	for _, c := range models {
		if err := c.Fit(d); err != nil {
			t.Fatal(err)
		}
	}
	f := func(a, b, cc float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(cc) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(cc, 0) {
			return true
		}
		x := []float64{math.Mod(a, 100), math.Mod(b, 100), math.Mod(cc, 100)}
		for _, c := range models {
			if c.Name() == "GBM" && (&GBM{}).Squared {
				continue
			}
			p := c.Predict(x)
			if math.IsNaN(p) || p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBanditDeterministic(t *testing.T) {
	d := linearlySeparable(500, 31)
	a := &Bandit{Seed: 5}
	b := &Bandit{Seed: 5}
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := d.Row(i)
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("bandit not deterministic for fixed seed")
		}
	}
}

// TestSeedsChangeTheFit: each seeded model and Split draws from its
// Seed, not from a literal, so seeds 1 and 2 give a different fit or
// partition of one dataset.
func TestSeedsChangeTheFit(t *testing.T) {
	d := linearlySeparable(300, 41)
	models := func(seed int64) []Classifier {
		return []Classifier{&LogReg{Seed: seed}, &SVM{Seed: seed}, &NN{Hidden: 8, Seed: seed, Epochs: 5}, &Bandit{Seed: seed}}
	}
	seed2 := models(2)
	for i, a := range models(1) {
		b := seed2[i]
		if err := a.Fit(d); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(d); err != nil {
			t.Fatal(err)
		}
		same := true
		for r := 0; r < d.Len(); r++ {
			same = same && a.Predict(d.Row(r)) == b.Predict(d.Row(r))
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 fit identical models", a.Name())
		}
	}
	a, _ := d.Split(0.5, 1)
	b, _ := d.Split(0.5, 2)
	if slices.Equal(a.Y, b.Y) && slices.Equal(a.X.Data, b.X.Data) {
		t.Error("Split: seeds 1 and 2 give the same partition")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if Accuracy(&LinReg{}, &Dataset{}) != 0 {
		t.Fatal("accuracy on empty set should be 0")
	}
}

func TestGBMRefitNoAllocs(t *testing.T) {
	// Steady-state retraining — the LRB loop refits the same GBM on a
	// same-shaped window every 2048 fresh labels — must reuse the pooled
	// trees, fit scratch and score buffers instead of touching the heap.
	// The first fit sizes everything; every later fit must be free.
	rng := rand.New(rand.NewSource(17))
	var X Matrix
	y := make([]float64, 0, 2048)
	row := make([]float64, 14)
	for i := 0; i < 2048; i++ {
		for j := range row {
			row[j] = rng.Float64() * 16
		}
		X.AppendRow(row)
		y = append(y, rng.Float64()*34)
	}
	m := &GBM{Squared: true, Trees: 30, Depth: 4, LR: 0.2, MinLeaf: 16}
	if err := m.FitRegression(&X, y); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(5, func() {
		if err := m.FitRegression(&X, y); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("steady-state refit allocates %.1f allocs/op, want 0", a)
	}
}

func TestTreeRefitNoAllocs(t *testing.T) {
	// The DTA policy refits one standalone RegressionTree in place; like
	// the GBM, refitting on same-shaped data must be allocation-free.
	rng := rand.New(rand.NewSource(23))
	var X Matrix
	y := make([]float64, 0, 1024)
	row := make([]float64, 3)
	for i := 0; i < 1024; i++ {
		for j := range row {
			row[j] = rng.Float64() * 8
		}
		X.AppendRow(row)
		y = append(y, rng.Float64())
	}
	tr := &RegressionTree{MaxDepth: 4, MinLeaf: 32}
	tr.Fit(&X, y)
	if a := testing.AllocsPerRun(10, func() { tr.Fit(&X, y) }); a != 0 {
		t.Fatalf("steady-state tree refit allocates %.1f allocs/op, want 0", a)
	}
}
