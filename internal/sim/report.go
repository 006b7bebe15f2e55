package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/scip-cache/scip/internal/stats"
)

// WriteJSON marshals v with indentation and writes it to path with a
// trailing newline — the BENCH.json artefact format, so report files stay
// diffable and machine-readable.
func WriteJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// FormatLoadInterval renders one live snapshot line of a serving run:
// cumulative elapsed time, interval request rate, interval object and byte
// miss ratios, occupancy skew across shards, and interval p50/p99 access
// latency. delta must be the difference of two consecutive snapshots
// (Snapshot.Sub) taken ivDur apart.
func FormatLoadInterval(elapsed, ivDur time.Duration, delta stats.Snapshot) string {
	tot := delta.Totals()
	rps := 0.0
	if s := ivDur.Seconds(); s > 0 {
		rps = float64(tot.Requests) / s
	}
	return fmt.Sprintf(
		"t=%7.1fs req/s=%9.0f miss=%6.2f%% byteMiss=%6.2f%% occSkew=%5.2f p50=%-8s p99=%-8s",
		elapsed.Seconds(), rps,
		100*delta.MissRatio(), 100*delta.ByteMissRatio(),
		delta.OccupancySkew(),
		delta.LatencyQuantile(0.50).Round(time.Nanosecond),
		delta.LatencyQuantile(0.99).Round(time.Nanosecond))
}
