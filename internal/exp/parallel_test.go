package exp

import (
	"bytes"
	"testing"
)

// TestParallelMatchesSerial asserts the engine's central guarantee: the
// parallel experiment runner produces byte-identical table output to the
// serial path. Even on a single-CPU machine Workers > 1 exercises the
// real pool (goroutines, the singleflight trace memo, out-of-order cell
// completion), so this catches any ordering dependence in the figures.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: replays figures twice")
	}
	for _, name := range []string{"fig7", "fig8", "fig1", "ablation"} {
		t.Run(name, func(t *testing.T) {
			r, ok := Lookup(name)
			if !ok {
				t.Fatalf("unknown experiment %q", name)
			}
			run := func(workers int) string {
				// Fresh memo per run so the parallel path regenerates its
				// own traces through the singleflight.
				traceCache.Clear()
				var out bytes.Buffer
				cfg := Config{Scale: 0.0008, Seeds: []int64{1}, Out: &out, Quick: true, Workers: workers}
				if err := r.Run(cfg); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return out.String()
			}
			serial := run(1)
			parallel := run(8)
			if serial != parallel {
				t.Fatalf("parallel output differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
			if len(serial) == 0 {
				t.Fatal("no output produced")
			}
		})
	}
}
