package admission

// sketch is a 4-row count-min sketch with 4-bit conceptual counters
// (stored as int8, halved periodically — TinyLFU's aging). It backs
// TinyLFU's admission duel.
type sketch struct {
	rows    [4][]int8
	mask    uint64
	samples int
	window  int
}

// newSketch returns a sketch with at least the given number of counters
// per row (rounded up to a power of two). The aging sample window is
// 8 × counters, TinyLFU's W = 8C setting.
func newSketch(counters int) *sketch {
	size := 1
	for size < counters {
		size <<= 1
	}
	s := &sketch{mask: uint64(size - 1), window: counters * 8}
	for i := range s.rows {
		s.rows[i] = make([]int8, size)
	}
	return s
}

func (s *sketch) idx(row int, key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	return (h >> (8 * row)) & s.mask
}

// Add records one access and ages the sketch when the sample window
// fills.
func (s *sketch) Add(key uint64) {
	for r := range s.rows {
		i := s.idx(r, key)
		if s.rows[r][i] < 15 {
			s.rows[r][i]++
		}
	}
	s.samples++
	if s.samples >= s.window {
		s.samples /= 2
		for r := range s.rows {
			for i := range s.rows[r] {
				s.rows[r][i] /= 2
			}
		}
	}
}

// Estimate returns the minimum counter across rows.
func (s *sketch) Estimate(key uint64) int {
	est := 16
	for r := range s.rows {
		if v := int(s.rows[r][s.idx(r, key)]); v < est {
			est = v
		}
	}
	return est
}
