package stats

import (
	"bufio"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promLine matches a sample line of the text exposition format:
// name{labels} value — with an optional label set and a decimal or
// floating-point value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [-+0-9.eE]+(Inf|NaN)?$`)

// checkPromText validates the structural rules of the exposition format:
// every line is a comment or a well-formed sample, every sample's family
// has a preceding # TYPE, and histogram buckets are cumulative with a
// trailing +Inf bucket equal to _count.
func checkPromText(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	var lastBucket = map[string]int64{}
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", ln)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln, line)
			}
			if got := parts[3]; got != "counter" && got != "gauge" && got != "histogram" {
				t.Fatalf("line %d: unknown metric type %q", ln, got)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d: not a valid sample line: %q", ln, line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
				family = base
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln, name)
		}
		if strings.HasSuffix(name, "_bucket") {
			val, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatalf("line %d: bucket value: %v", ln, err)
			}
			if val < lastBucket[family] {
				t.Fatalf("line %d: histogram buckets not cumulative (%d < %d)", ln, val, lastBucket[family])
			}
			lastBucket[family] = val
		}
	}
}

// promValue extracts one sample value from rendered text.
func promValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, text)
	return 0
}

func TestWritePrometheus(t *testing.T) {
	st := New(2)
	st.ObserveAccess(0, 100, true, 1000, 0)
	st.Latency().Observe(200 * time.Nanosecond)
	st.ObserveAccess(0, 300, false, 1300, 1)
	st.Latency().Observe(5 * time.Microsecond)
	st.ObserveAccess(1, 50, true, 50, 0)
	st.Latency().Observe(time.Millisecond)

	var b strings.Builder
	if err := WritePrometheus(&b, st.Snapshot(), "scip"); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	checkPromText(t, text)

	if got := promValue(t, text, `scip_requests_total{shard="0"}`); got != 2 {
		t.Errorf("shard 0 requests = %v, want 2", got)
	}
	if got := promValue(t, text, `scip_hits_total{shard="1"}`); got != 1 {
		t.Errorf("shard 1 hits = %v, want 1", got)
	}
	if got := promValue(t, text, `scip_bytes_requested_total{shard="0"}`); got != 400 {
		t.Errorf("shard 0 bytes requested = %v, want 400", got)
	}
	if got := promValue(t, text, `scip_used_bytes{shard="0"}`); got != 1300 {
		t.Errorf("shard 0 used bytes = %v, want 1300", got)
	}
	if got := promValue(t, text, "scip_access_latency_seconds_count"); got != 3 {
		t.Errorf("latency count = %v, want 3", got)
	}
	wantSum := (200*time.Nanosecond + 5*time.Microsecond + time.Millisecond).Seconds()
	if got := promValue(t, text, "scip_access_latency_seconds_sum"); got != wantSum {
		t.Errorf("latency sum = %v, want %v", got, wantSum)
	}
	if got := promValue(t, text, `scip_access_latency_seconds_bucket{le="+Inf"}`); got != 3 {
		t.Errorf("+Inf bucket = %v, want 3", got)
	}
}

// TestWritePrometheusEmpty: a fresh snapshot renders every declared
// family with zero values and stays structurally valid.
func TestWritePrometheusEmpty(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, New(1).Snapshot(), "scip"); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	checkPromText(t, text)
	for _, fam := range promFamilies {
		if got := promValue(t, text, fmt.Sprintf(`scip_%s{shard="0"}`, fam.name)); got != 0 {
			t.Errorf("%s = %v, want 0", fam.name, got)
		}
	}
}

// TestWritePrometheusPropagatesError: a failing writer surfaces its
// error instead of being swallowed.
func TestWritePrometheusPropagatesError(t *testing.T) {
	wantErr := errors.New("sink closed")
	if err := WritePrometheus(failWriter{wantErr}, New(1).Snapshot(), "scip"); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// TestLatencySumTracksObservations: the histogram sum accumulates and
// differences like the other counters.
func TestLatencySumTracksObservations(t *testing.T) {
	st := New(1)
	st.ObserveAccess(0, 1, true, 1, 0)
	st.Latency().Observe(time.Microsecond)
	first := st.Snapshot()
	if first.LatencySumNanos != 1000 {
		t.Fatalf("sum = %d, want 1000", first.LatencySumNanos)
	}
	st.ObserveAccess(0, 1, true, 1, 0)
	st.Latency().Observe(3 * time.Microsecond)
	delta := st.Snapshot().Sub(first)
	if delta.LatencySumNanos != 3000 {
		t.Fatalf("delta sum = %d, want 3000", delta.LatencySumNanos)
	}
}
