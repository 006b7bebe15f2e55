package sim

import (
	"strings"
	"testing"
	"time"

	"github.com/scip-cache/scip/internal/stats"
)

// TestFormatLoadInterval pins the snapshot line format against a known
// delta, so scip-serve's interval log stays stable for anything parsing it.
func TestFormatLoadInterval(t *testing.T) {
	st := stats.New(2)
	st.ObserveAccess(0, 100, true, 1000, 0)
	st.ObserveAccess(1, 100, false, 1000, 1)
	st.Latency().Observe(time.Millisecond)
	st.Latency().Observe(time.Millisecond)
	line := FormatLoadInterval(2*time.Second, time.Second, st.Snapshot())
	for _, want := range []string{"t=    2.0s", "req/s=        2", "miss= 50.00%", "byteMiss= 50.00%", "occSkew= 1.00"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}
