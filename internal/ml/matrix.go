package ml

// Matrix is a dense row-major design matrix: Rows()×Cols float64 values
// held in one flat slice. It replaces the pointer-chasing [][]float64
// layout on every training hot path: rows are contiguous (one cache
// stream per scan instead of a pointer dereference per row), appending a
// row never allocates a per-row slice header, and trimming or halving a
// training buffer is a single copy on the backing array.
//
// The zero Matrix is empty and ready to use; Cols is fixed by the first
// AppendRow when left zero.
type Matrix struct {
	// Data holds the values of row i at Data[i*Cols : (i+1)*Cols].
	Data []float64
	// Cols is the row stride (the feature count).
	Cols int
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int {
	if m.Cols == 0 {
		return 0
	}
	return len(m.Data) / m.Cols
}

// Row returns row i as a slice aliasing the backing array. The result is
// full-slice-capped so an append by the caller cannot clobber row i+1.
func (m *Matrix) Row(i int) []float64 {
	lo, hi := i*m.Cols, (i+1)*m.Cols
	return m.Data[lo:hi:hi]
}

// AppendRow copies row onto the end of the matrix. The first append on a
// zero Matrix fixes Cols; later rows must match it.
func (m *Matrix) AppendRow(row []float64) {
	if m.Cols == 0 {
		m.Cols = len(row)
	}
	if len(row) != m.Cols {
		panic("ml: appending ragged row to Matrix")
	}
	m.Data = append(m.Data, row...)
}

// Reset empties the matrix in place (retaining the backing array) and
// sets the stride for the rows about to be appended.
func (m *Matrix) Reset(cols int) {
	m.Data = m.Data[:0]
	m.Cols = cols
}

// TrimFront keeps the last n rows, moving them to the front of the
// backing array with a single flat copy (the halving trim the training
// buffers use).
func (m *Matrix) TrimFront(n int) {
	rows := m.Rows()
	if n >= rows {
		return
	}
	copy(m.Data, m.Data[(rows-n)*m.Cols:])
	m.Data = m.Data[:n*m.Cols]
}

// growFloats returns s resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for int slices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growBytes is growFloats for byte slices.
func growBytes(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}
