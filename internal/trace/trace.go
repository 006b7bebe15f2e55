package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/scip-cache/scip/internal/cache"
)

// Trace is an in-memory access trace.
type Trace struct {
	// Name labels the workload (e.g. "CDN-T").
	Name string
	// Requests in replay order.
	Requests []cache.Request
}

// Stats summarises a trace in the shape of the paper's Table 1.
type Stats struct {
	Name           string
	TotalRequests  int
	UniqueObjects  int
	MaxObjectSize  int64
	MinObjectSize  int64
	MeanObjectSize float64 // mean size over unique objects, bytes
	WorkingSetSize int64   // sum of unique object sizes, bytes
}

// ComputeStats scans the trace once and returns its Table-1 statistics.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Name: t.Name, TotalRequests: len(t.Requests)}
	sizes := make(map[uint64]int64, 1<<16)
	for _, r := range t.Requests {
		if _, seen := sizes[r.Key]; !seen {
			sizes[r.Key] = r.Size
			s.WorkingSetSize += r.Size
			if r.Size > s.MaxObjectSize {
				s.MaxObjectSize = r.Size
			}
			if s.MinObjectSize == 0 || r.Size < s.MinObjectSize {
				s.MinObjectSize = r.Size
			}
		}
	}
	s.UniqueObjects = len(sizes)
	if s.UniqueObjects > 0 {
		s.MeanObjectSize = float64(s.WorkingSetSize) / float64(s.UniqueObjects)
	}
	return s
}

// String renders the stats as one Table-1-style row.
func (s Stats) String() string {
	return fmt.Sprintf("%-8s requests=%d unique=%d maxSize=%d minSize=%d meanSizeKB=%.2f wssMB=%.1f",
		s.Name, s.TotalRequests, s.UniqueObjects, s.MaxObjectSize, s.MinObjectSize,
		s.MeanObjectSize/1024, float64(s.WorkingSetSize)/(1<<20))
}

// WriteCSV writes the trace in "time,key,size" lines.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Requests {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", r.Time, r.Key, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses "time,key,size" lines. Blank lines and lines starting
// with '#' are skipped.
func ReadCSV(r io.Reader, name string) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", lineno, len(parts))
		}
		tm, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %w", lineno, err)
		}
		key, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad key: %w", lineno, err)
		}
		size, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad size: %w", lineno, err)
		}
		if size <= 0 {
			return nil, fmt.Errorf("trace: line %d: non-positive size %d", lineno, size)
		}
		t.Requests = append(t.Requests, cache.Request{Time: tm, Key: key, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// binaryMagic guards against decoding unrelated files.
var binaryMagic = [4]byte{'S', 'C', 'T', '1'}

// WriteBinary writes the trace in the compact varint format: a 4-byte
// magic, a varint record count, then per record varint-encoded time delta,
// key and size.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(len(t.Requests))); err != nil {
		return err
	}
	var prev int64
	for _, r := range t.Requests {
		if r.Time < prev {
			return fmt.Errorf("trace: non-monotonic time %d after %d", r.Time, prev)
		}
		if err := put(uint64(r.Time - prev)); err != nil {
			return err
		}
		prev = r.Time
		if err := put(r.Key); err != nil {
			return err
		}
		if err := put(uint64(r.Size)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a trace written by WriteBinary.
func ReadBinary(r io.Reader, name string) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != binaryMagic {
		return nil, errors.New("trace: bad magic (not a binary trace)")
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// The record count is untrusted input: preallocate at most 1 Mi
	// records and let append grow as records actually decode, so a
	// corrupt header cannot demand an arbitrary allocation.
	t := &Trace{Name: name, Requests: make([]cache.Request, 0, min(n, 1<<20))}
	var tm int64
	for i := uint64(0); i < n; i++ {
		dt, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		key, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		tm += int64(dt)
		t.Requests = append(t.Requests, cache.Request{Time: tm, Key: key, Size: int64(size)})
	}
	return t, nil
}

// ParseBytes parses a human byte size: a plain integer or one with a
// KiB/MiB/GiB suffix ("512MiB", "64GiB").
func ParseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad byte size %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("trace: negative byte size %q", s)
	}
	return v * mult, nil
}

// ReadLRB parses the whitespace-separated "timestamp id size [extra...]"
// format used by the open-source LRB simulator's public traces (e.g. the
// Wikipedia CDN trace), ignoring any extra feature columns.
func ReadLRB(r io.Reader, name string) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("trace: line %d: want >= 3 fields, got %d", lineno, len(fields))
		}
		tm, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad timestamp: %w", lineno, err)
		}
		key, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad id: %w", lineno, err)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad size: %w", lineno, err)
		}
		if size <= 0 {
			return nil, fmt.Errorf("trace: line %d: non-positive size %d", lineno, size)
		}
		t.Requests = append(t.Requests, cache.Request{Time: tm, Key: key, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
