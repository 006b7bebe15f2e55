package exp

import (
	"fmt"
	"io"
	"sort"

	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/runner"
	"github.com/scip-cache/scip/internal/trace"
)

// Config controls experiment scale and output.
type Config struct {
	// Scale scales the paper's trace sizes (1 = full size; the harness
	// default is 1/100, the benchmarks run 1/500).
	Scale float64
	// Seeds are the generation seeds averaged over where noise matters.
	Seeds []int64
	// Out receives the experiment's table output.
	Out io.Writer
	// Quick trims parameter grids for smoke runs.
	Quick bool
	// Workers bounds the experiment engine's concurrency: 0 (the
	// default) sizes the pool by GOMAXPROCS, 1 forces the serial path,
	// and any larger value caps the pool. Table output is byte-identical
	// for every value — only wall-clock time changes.
	Workers int
}

// DefaultConfig returns the full-run configuration.
func DefaultConfig(out io.Writer) Config {
	return Config{Scale: 0.01, Seeds: []int64{1, 2, 3}, Out: out}
}

// Runner is one experiment.
type Runner struct {
	// Name is the dispatch key (e.g. "fig8").
	Name string
	// Title describes the paper artefact reproduced.
	Title string
	// Run executes the experiment.
	Run func(cfg Config) error
}

var experiments []Runner

func register(r Runner) { experiments = append(experiments, r) }

// Runners returns all registered experiments sorted by name.
func Runners() []Runner {
	out := append([]Runner(nil), experiments...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds an experiment by name.
func Lookup(name string) (Runner, bool) {
	for _, r := range experiments {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// traceCache memoises generated traces within one process. It is a
// singleflight memo so that two workers wanting the same (profile, scale,
// seed) trace generate it exactly once and share the result, and so that
// concurrent experiment cells never race on the map.
var traceCache runner.Memo[string, *trace.Trace]

// getTrace returns the memoised synthetic trace for a profile. Safe for
// concurrent use.
func getTrace(p gen.Profile, scale float64, seed int64) (*trace.Trace, error) {
	key := fmt.Sprintf("%s/%g/%d", p, scale, seed)
	return traceCache.Do(key, func() (*trace.Trace, error) {
		return gen.Generate(p.Config(scale, seed))
	})
}

// runJobs evaluates independent experiment cells on the config's worker
// pool and returns their results in submission order, which is what keeps
// parallel table output byte-identical to the serial run: jobs only
// compute, the caller formats from the ordered slice.
func runJobs[T any](cfg Config, jobs []func() (T, error)) ([]T, error) {
	return runner.Map(cfg.Workers, len(jobs), func(i int) (T, error) { return jobs[i]() })
}

// paperGB lists the cache sizes of Figures 8's panels.
var paperGB = []int64{64, 128, 256}

// gb converts gigabytes to bytes.
func gb(n int64) int64 { return n << 30 }

// header prints a table header line.
func header(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}

// mean averages a float slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
