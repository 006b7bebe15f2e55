package ml

// RegressionTree is a CART regression tree with histogram-based splits,
// used standalone by the DTA baseline and as the weak learner inside GBM.
//
// The tree is stored as a flat index-linked node array and fitted over a
// reusable fitScratch, so a refit on same-shaped data allocates nothing.
// The split arithmetic — per-node uniform bin edges, idx-order histogram
// accumulation, the variance-reduction gain formula and its tie-breaking
// scan order — is kept expression-for-expression identical to the
// original pointer-tree kernel so that fitted trees (and therefore every
// figure table) are bit-for-bit unchanged.
type RegressionTree struct {
	// MaxDepth limits tree depth (default 4).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 8).
	MinLeaf int
	// Bins is the number of histogram bins per feature (default 32).
	Bins int

	nodes   []treeNode
	scratch *fitScratch // lazily allocated for standalone Fit
}

// treeNode is one node of the flat tree; children are node-array indices.
type treeNode struct {
	threshold float64
	value     float64
	feature   int32
	left      int32
	right     int32
	leaf      bool
}

// fitScratch holds every buffer a tree fit needs so refits allocate
// nothing in steady state. A GBM shares one scratch across its whole
// ensemble; a standalone tree lazily allocates its own on first Fit.
type fitScratch struct {
	idx []int // row permutation, partitioned in place while growing
	tmp []int // right-child staging for the stable partition

	flo   []float64 // per-feature node minimum (len nf)
	fhi   []float64 // per-feature node maximum (len nf)
	scale []float64 // per-feature bin scale; 0 marks a constant feature
	sums  []float64 // nf×Bins histogram of target sums
	cnts  []float64 // nf×Bins histogram of row counts

	// Boosting hooks (nil/zero for standalone trees): score accumulates
	// lr·leafValue per row as leaves are created, which replaces the
	// per-row re-traversal of every fitted tree. Row i reaches exactly
	// the leaf whose partition segment contains it (the partition uses
	// the same comparison as Predict), so the scores are identical.
	score []float64
	lr    float64

	// Root fast path: every tree of a GBM fit grows its root over the
	// same full row set, so the root's per-feature ranges — and hence
	// its bin edges and every row's bin id — are fit-wide constants.
	// prepareRoot quantizes each row to compact bin ids once per fit;
	// per tree only the target sums change. Non-root nodes keep the
	// per-node binning of the original kernel (their ranges shrink with
	// the partition, so fit-wide edges would move the thresholds and
	// change figure bytes).
	rootReady bool
	rootLo    []float64
	rootScale []float64
	rootBins  []uint8   // row-major n×nf bin ids
	rootCnts  []float64 // nf×Bins row counts (constant across trees)
}

// ensure sizes every per-fit buffer, reallocating only on growth.
func (s *fitScratch) ensure(n, nf, bins int) {
	s.idx = growInts(s.idx, n)
	s.tmp = growInts(s.tmp, n)
	s.flo = growFloats(s.flo, nf)
	s.fhi = growFloats(s.fhi, nf)
	s.scale = growFloats(s.scale, nf)
	s.sums = growFloats(s.sums, nf*bins)
	s.cnts = growFloats(s.cnts, nf*bins)
}

// fillIdx resets the row permutation to identity. Growing a tree
// partitions idx in place, so each fit must refill the values — but the
// slice itself is built once and reused.
func (s *fitScratch) fillIdx(n int) {
	for i := range s.idx[:n] {
		s.idx[i] = i
	}
}

// prepareRoot computes the fit-wide root quantization: per-feature
// min/max over all rows, each row's bin id per feature, and the (tree-
// invariant) per-bin row counts. bins must fit a uint8 id.
func (s *fitScratch) prepareRoot(X *Matrix, bins int) {
	n, nf := X.Rows(), X.Cols
	s.rootLo = growFloats(s.rootLo, nf)
	s.rootScale = growFloats(s.rootScale, nf)
	s.rootBins = growBytes(s.rootBins, n*nf)
	s.rootCnts = growFloats(s.rootCnts, nf*bins)
	lo, hi := s.rootLo, s.fhi[:nf] // fhi doubles as max scratch here
	copy(lo, X.Data[:nf])
	copy(hi, X.Data[:nf])
	for i := 0; i < n; i++ {
		row := X.Data[i*nf : i*nf+nf]
		for f, v := range row {
			if v < lo[f] {
				lo[f] = v
			}
			if v > hi[f] {
				hi[f] = v
			}
		}
	}
	for f := 0; f < nf; f++ {
		if hi[f] <= lo[f] {
			s.rootScale[f] = 0 // constant feature: never split on it
		} else {
			s.rootScale[f] = float64(bins) / (hi[f] - lo[f])
		}
	}
	cnts := s.rootCnts[:nf*bins]
	for b := range cnts {
		cnts[b] = 0
	}
	for i := 0; i < n; i++ {
		row := X.Data[i*nf : i*nf+nf]
		ids := s.rootBins[i*nf : i*nf+nf]
		for f, v := range row {
			b := int((v - lo[f]) * s.rootScale[f])
			if b >= bins {
				b = bins - 1
			}
			ids[f] = uint8(b)
			cnts[f*bins+b]++
		}
	}
	s.rootReady = true
}

func (t *RegressionTree) defaults() {
	if t.MaxDepth <= 0 {
		t.MaxDepth = 4
	}
	if t.MinLeaf <= 0 {
		t.MinLeaf = 8
	}
	if t.Bins <= 0 {
		t.Bins = 32
	}
}

// Fit grows the tree on the full dataset, reusing the tree's own scratch
// buffers so repeated refits on same-shaped data allocate nothing.
func (t *RegressionTree) Fit(X *Matrix, y []float64) {
	t.defaults()
	if t.scratch == nil {
		t.scratch = &fitScratch{}
	}
	s := t.scratch
	n := X.Rows()
	s.ensure(n, X.Cols, t.Bins)
	s.fillIdx(n)
	s.score, s.lr, s.rootReady = nil, 0, false
	t.fit(X, y, s, n)
}

// fit grows the tree over the first n entries of s.idx. The caller has
// sized s (ensure) and filled the permutation (fillIdx).
func (t *RegressionTree) fit(X *Matrix, y []float64, s *fitScratch, n int) {
	// A depth-d tree holds at most 2^(d+1)-1 nodes; sizing the array to
	// that bound up front means no refit can ever grow it, keeping
	// steady-state retrains strictly allocation-free.
	if maxNodes := 1<<(t.MaxDepth+1) - 1; cap(t.nodes) < maxNodes {
		t.nodes = make([]treeNode, 0, maxNodes)
	}
	t.nodes = t.nodes[:0]
	t.grow(X, y, s, 0, n, 0)
}

// grow recursively builds the subtree over rows s.idx[lo:hi], returning
// its node index.
func (t *RegressionTree) grow(X *Matrix, y []float64, s *fitScratch, lo, hi, depth int) int32 {
	idx := s.idx[lo:hi]
	if depth >= t.MaxDepth || len(idx) < 2*t.MinLeaf {
		sum := 0.0
		for _, i := range idx {
			sum += y[i]
		}
		return t.leaf(s, idx, sum)
	}
	feature, threshold, total, ok := t.bestSplit(X, y, s, idx, depth)
	if !ok {
		return t.leaf(s, idx, total)
	}
	// Stable in-place partition of idx: rows at or below the threshold
	// compact to the front in order, the rest stage in tmp and copy back
	// behind them — the same left/right row order the old kernel got
	// from appending to fresh slices.
	cols := X.Cols
	nl, nt := lo, 0
	for _, i := range idx {
		if X.Data[i*cols+feature] <= threshold {
			s.idx[nl] = i
			nl++
		} else {
			s.tmp[nt] = i
			nt++
		}
	}
	copy(s.idx[nl:hi], s.tmp[:nt])
	if nl-lo < t.MinLeaf || hi-nl < t.MinLeaf {
		// total was accumulated in the pre-partition row order, so this
		// leaf's mean matches the old kernel's mean over the unsplit idx.
		return t.leaf(s, s.idx[lo:hi], total)
	}
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{feature: int32(feature), threshold: threshold})
	l := t.grow(X, y, s, lo, nl, depth+1)
	r := t.grow(X, y, s, nl, hi, depth+1)
	t.nodes[node].left, t.nodes[node].right = l, r
	return node
}

// leaf appends a leaf with value sum/len(idx) and, when boosting, folds
// lr·value into the score of every row the leaf covers.
func (t *RegressionTree) leaf(s *fitScratch, idx []int, sum float64) int32 {
	v := 0.0
	if len(idx) > 0 {
		v = sum / float64(len(idx))
	}
	if s.score != nil {
		for _, i := range idx {
			s.score[i] += s.lr * v
		}
	}
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{leaf: true, value: v})
	return node
}

// bestSplit scans histogram bins of every feature for the split with the
// highest variance reduction. It also returns the idx-order target sum
// (reused for the leaf mean when no split is taken).
func (t *RegressionTree) bestSplit(X *Matrix, y []float64, s *fitScratch, idx []int, depth int) (feature int, threshold float64, totalSum float64, ok bool) {
	nf := X.Cols
	bins := t.Bins
	totalCnt := float64(len(idx))
	for _, i := range idx {
		totalSum += y[i]
	}

	var lo, scale, sums, cnts []float64
	if depth == 0 && s.rootReady {
		// Root fast path: ranges, bin ids and counts were quantized once
		// per fit; only the per-bin target sums depend on this tree.
		lo, scale, cnts = s.rootLo, s.rootScale, s.rootCnts
		sums = s.sums[:nf*bins]
		for b := range sums {
			sums[b] = 0
		}
		for _, i := range idx {
			ids := s.rootBins[i*nf : i*nf+nf]
			yi := y[i]
			for f, b := range ids {
				sums[f*bins+int(b)] += yi
			}
		}
	} else {
		// Pass 1: per-feature min/max for every feature in one row-major
		// sweep (the old kernel re-scanned the rows once per feature).
		lo, scale = s.flo[:nf], s.scale[:nf]
		hi := s.fhi[:nf]
		r0 := X.Row(idx[0])
		copy(lo, r0)
		copy(hi, r0)
		cols := X.Cols
		for _, i := range idx {
			row := X.Data[i*cols : i*cols+nf]
			for f, v := range row {
				if v < lo[f] {
					lo[f] = v
				}
				if v > hi[f] {
					hi[f] = v
				}
			}
		}
		for f := 0; f < nf; f++ {
			if hi[f] <= lo[f] {
				scale[f] = 0 // constant feature: all rows land in bin 0, skipped below
			} else {
				scale[f] = float64(bins) / (hi[f] - lo[f])
			}
		}
		// Pass 2: fill every feature's histogram in one sweep. Each
		// (feature, bin) bucket accumulates its rows in idx order —
		// exactly the order of the old per-feature passes.
		sums, cnts = s.sums[:nf*bins], s.cnts[:nf*bins]
		for b := range sums {
			sums[b], cnts[b] = 0, 0
		}
		for _, i := range idx {
			row := X.Data[i*cols : i*cols+nf]
			yi := y[i]
			for f, v := range row {
				b := int((v - lo[f]) * scale[f])
				if b >= bins {
					b = bins - 1
				}
				sums[f*bins+b] += yi
				cnts[f*bins+b]++
			}
		}
	}

	bestGain := 1e-12
	for f := 0; f < nf; f++ {
		sc := scale[f]
		if sc == 0 {
			continue
		}
		fs := sums[f*bins : f*bins+bins]
		fc := cnts[f*bins : f*bins+bins]
		leftSum, leftCnt := 0.0, 0.0
		for b := 0; b < bins-1; b++ {
			leftSum += fs[b]
			leftCnt += fc[b]
			rightCnt := totalCnt - leftCnt
			if leftCnt == 0 || rightCnt == 0 {
				continue
			}
			rightSum := totalSum - leftSum
			// Variance reduction ∝ Σ n_k·mean_k² − n·mean².
			gain := leftSum*leftSum/leftCnt + rightSum*rightSum/rightCnt - totalSum*totalSum/totalCnt
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = lo[f] + float64(b+1)/sc
				ok = true
			}
		}
	}
	return feature, threshold, totalSum, ok
}

// Predict returns the leaf value for x (0 before Fit).
func (t *RegressionTree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	n := &t.nodes[0]
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = &t.nodes[n.left]
		} else {
			n = &t.nodes[n.right]
		}
	}
	return n.value
}
