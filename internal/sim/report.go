package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/scip-cache/scip/internal/stats"
)

// WriteJSON marshals v with indentation and writes it to path with a
// trailing newline — the shared artefact format of BENCH.json and
// LOAD.json, so report files stay diffable and machine-readable across
// tools.
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

// LoadReport is the final JSON document of a scip-load run. It shares the
// BENCH.json conventions (generated_unix, total_seconds, gomaxprocs) so
// runs can be compared and archived alongside figure timings.
type LoadReport struct {
	GeneratedUnix int64   `json:"generated_unix"`
	Trace         string  `json:"trace"`
	Policy        string  `json:"policy"`
	CacheBytes    int64   `json:"cache_bytes"`
	Shards        int     `json:"shards"`
	Workers       int     `json:"workers"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Repeat        int     `json:"repeat"`
	Requests      int64   `json:"requests"`
	TotalSeconds  float64 `json:"total_seconds"`
	RPS           float64 `json:"requests_per_second"`
	MissRatio     float64 `json:"miss_ratio"`
	ByteMissRatio float64 `json:"byte_miss_ratio"`
	Evictions     int64   `json:"evictions"`
	UsedBytes     int64   `json:"used_bytes"`
	OccupancySkew float64 `json:"occupancy_skew"`
	RequestSkew   float64 `json:"request_skew"`
	P50Micros     float64 `json:"p50_us"`
	P99Micros     float64 `json:"p99_us"`

	PerShard []stats.ShardSnapshot `json:"per_shard"`
}

// BuildLoadReport condenses a final stats snapshot into a LoadReport.
// Identification fields (Trace, Policy, ...) are the caller's to fill.
func BuildLoadReport(snap stats.Snapshot, elapsed time.Duration) LoadReport {
	tot := snap.Totals()
	r := LoadReport{
		Requests:      tot.Requests,
		TotalSeconds:  elapsed.Seconds(),
		MissRatio:     snap.MissRatio(),
		ByteMissRatio: snap.ByteMissRatio(),
		Evictions:     tot.Evictions,
		UsedBytes:     tot.UsedBytes,
		OccupancySkew: snap.OccupancySkew(),
		RequestSkew:   snap.RequestSkew(),
		P50Micros:     float64(snap.LatencyQuantile(0.50).Nanoseconds()) / 1e3,
		P99Micros:     float64(snap.LatencyQuantile(0.99).Nanoseconds()) / 1e3,
		PerShard:      snap.Shards,
	}
	if s := elapsed.Seconds(); s > 0 {
		r.RPS = float64(tot.Requests) / s
	}
	return r
}

// FormatLoadInterval renders one live snapshot line of a load run:
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

// FormatShardOccupancy renders the per-shard occupancy gauges of a
// snapshot as a compact MiB list, e.g. "shard MiB: [3.2 3.1 3.3 3.0]".
func FormatShardOccupancy(snap stats.Snapshot) string {
	var b strings.Builder
	b.WriteString("shard MiB: [")
	for i, c := range snap.Shards {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.1f", float64(c.UsedBytes)/(1<<20))
	}
	b.WriteByte(']')
	return b.String()
}
