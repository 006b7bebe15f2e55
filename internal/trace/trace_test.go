package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/scip-cache/scip/internal/cache"
)

func sample() *Trace {
	return &Trace{Name: "t", Requests: []cache.Request{
		{Time: 0, Key: 1, Size: 100},
		{Time: 1, Key: 2, Size: 50},
		{Time: 2, Key: 1, Size: 100},
		{Time: 5, Key: 3, Size: 25},
	}}
}

func TestComputeStats(t *testing.T) {
	s := sample().ComputeStats()
	if s.TotalRequests != 4 {
		t.Fatalf("TotalRequests=%d", s.TotalRequests)
	}
	if s.UniqueObjects != 3 {
		t.Fatalf("UniqueObjects=%d", s.UniqueObjects)
	}
	if s.MaxObjectSize != 100 || s.MinObjectSize != 25 {
		t.Fatalf("Max=%d Min=%d", s.MaxObjectSize, s.MinObjectSize)
	}
	if s.WorkingSetSize != 175 {
		t.Fatalf("WSS=%d", s.WorkingSetSize)
	}
	if want := 175.0 / 3; s.MeanObjectSize != want {
		t.Fatalf("Mean=%g want %g", s.MeanObjectSize, want)
	}
	if !strings.Contains(s.String(), "requests=4") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := (&Trace{Name: "e"}).ComputeStats()
	if s.TotalRequests != 0 || s.UniqueObjects != 0 || s.MeanObjectSize != 0 {
		t.Fatalf("unexpected stats for empty trace: %+v", s)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sample()
	if err := in.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Requests) != len(in.Requests) {
		t.Fatalf("len=%d want %d", len(out.Requests), len(in.Requests))
	}
	for i := range in.Requests {
		if out.Requests[i] != in.Requests[i] {
			t.Fatalf("record %d: %v != %v", i, out.Requests[i], in.Requests[i])
		}
	}
}

func TestCSVSkipsCommentsAndBlanks(t *testing.T) {
	src := "# header\n\n1,2,3\n  \n4,5,6\n"
	tr, err := ReadCSV(strings.NewReader(src), "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 2 {
		t.Fatalf("len=%d want 2", len(tr.Requests))
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"1,2\n",
		"a,2,3\n",
		"1,b,3\n",
		"1,2,c\n",
		"1,2,0\n",
		"1,2,-5\n",
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src), "x"); err == nil {
			t.Fatalf("ReadCSV(%q) succeeded, want error", src)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sample()
	if err := in.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBinary(&buf, "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Requests {
		if out.Requests[i] != in.Requests[i] {
			t.Fatalf("record %d: %v != %v", i, out.Requests[i], in.Requests[i])
		}
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("nope....."), "x"); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryRejectsNonMonotonicTime(t *testing.T) {
	tr := &Trace{Requests: []cache.Request{
		{Time: 5, Key: 1, Size: 1},
		{Time: 4, Key: 2, Size: 1},
	}}
	if err := tr.WriteBinary(&bytes.Buffer{}); err == nil {
		t.Fatal("non-monotonic time accepted")
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)-1]), "x"); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// Property: binary round-trip preserves arbitrary monotone traces.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(deltas []uint16, keys []uint32) bool {
		n := len(deltas)
		if len(keys) < n {
			n = len(keys)
		}
		in := &Trace{Name: "p"}
		var tm int64
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n; i++ {
			tm += int64(deltas[i])
			in.Requests = append(in.Requests, cache.Request{
				Time: tm, Key: uint64(keys[i]), Size: int64(rng.Intn(1000) + 1),
			})
		}
		var buf bytes.Buffer
		if err := in.WriteBinary(&buf); err != nil {
			return false
		}
		out, err := ReadBinary(&buf, "p")
		if err != nil || len(out.Requests) != len(in.Requests) {
			return false
		}
		for i := range in.Requests {
			if out.Requests[i] != in.Requests[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"1024", 1024, true},
		{"4KiB", 4096, true},
		{"512MiB", 512 << 20, true},
		{"64GiB", 64 << 30, true},
		{" 2GiB", 2 << 30, true},
		{"abc", 0, false},
		{"-5", 0, false},
		{"5TiB", 0, false}, // unknown suffix -> parse failure
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseBytes(%q) succeeded, want error", c.in)
		}
	}
}

func TestReadLRBFormat(t *testing.T) {
	src := "# comment\n1 100 512\n2 101 1024 42 extra 7\n\n3 100 512\n"
	tr, err := ReadLRB(strings.NewReader(src), "lrb")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 3 {
		t.Fatalf("len = %d, want 3", len(tr.Requests))
	}
	want := cache.Request{Time: 2, Key: 101, Size: 1024}
	if tr.Requests[1] != want {
		t.Fatalf("record 1 = %+v, want %+v", tr.Requests[1], want)
	}
}

func TestReadLRBErrors(t *testing.T) {
	for _, src := range []string{"1 2\n", "x 2 3\n", "1 y 3\n", "1 2 z\n", "1 2 0\n"} {
		if _, err := ReadLRB(strings.NewReader(src), "x"); err == nil {
			t.Errorf("ReadLRB(%q) succeeded, want error", src)
		}
	}
}

// TestLoad reads one trace written in each of the three formats, and
// rejects asking for two formats at once.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	in := sample()
	var csvBuf, binBuf, lrbBuf bytes.Buffer
	if err := in.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := in.WriteBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	for _, r := range in.Requests {
		fmt.Fprintf(&lrbBuf, "%d %d %d 7\n", r.Time, r.Key, r.Size)
	}
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	csvPath := write("t.csv", csvBuf.Bytes())
	binPath := write("t.bin", binBuf.Bytes())
	lrbPath := write("t.lrb", lrbBuf.Bytes())
	for _, tc := range []struct {
		name     string
		path     string
		csv, lrb bool
		wantErr  bool
	}{
		{"binary", binPath, false, false, false},
		{"csv", csvPath, true, false, false},
		{"lrb", lrbPath, false, true, false},
		{"csv and lrb", csvPath, true, true, true},
		{"binary reader on csv", csvPath, false, false, true},
		{"missing file", filepath.Join(dir, "none"), false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Load(tc.path, tc.csv, tc.lrb)
			if tc.wantErr {
				if err == nil {
					t.Fatal("Load succeeded, want an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tr.Name != tc.path {
				t.Errorf("Name = %q, want the path %q", tr.Name, tc.path)
			}
			if len(tr.Requests) != len(in.Requests) {
				t.Fatalf("%d requests, want %d", len(tr.Requests), len(in.Requests))
			}
			for i := range in.Requests {
				if tr.Requests[i] != in.Requests[i] {
					t.Fatalf("record %d: %v, want %v", i, tr.Requests[i], in.Requests[i])
				}
			}
		})
	}
}
