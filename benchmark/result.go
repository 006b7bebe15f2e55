package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the harness reads: it is the one
// place metric names, units, directions and bounds are written down.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

const specFile = "BENCHMARK.json"

func loadSpec() (*spec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects a run's measurements by metric name.
type values map[string]float64

// render turns measured values into the reported set: exactly the
// declared metrics, each with its declared unit. A declared metric the
// run did not measure, or a measured one nobody declared, is a harness
// bug, not a zero.
func render(declared []specMetric, got values) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in %s but was not measured", d.Name, specFile)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if extra := len(got) - len(declared); extra > 0 {
		return nil, fmt.Errorf("%d measured metrics are not declared in %s", extra, specFile)
	}
	return out, nil
}

// runResult is one run of one workload, traced or not: what the driver
// reads from the last line of standard output.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Name     string         `json:"name"`
	Config   map[string]any `json:"config"`
	Samples  []sampleCount  `json:"samples"`
	EndToEnd *runResult     `json:"end_to_end,omitempty"`
	PerLayer *runResult     `json:"per_layer,omitempty"`
	Budget   *budget        `json:"budget,omitempty"`
	Gate     []string       `json:"gate_errors,omitempty"`
	Notes    []string       `json:"notes,omitempty"`
}

// sampleCount says how many samples stand behind a reported number.
type sampleCount struct {
	Name string `json:"name"`
	N    int64  `json:"n"`
}

func (w *workloadResult) count(name string, n int) {
	w.Samples = append(w.Samples, sampleCount{name, int64(n)})
}

// provenance says what produced a result file and on what.
type provenance struct {
	Commit      string  `json:"commit"`
	Dirty       bool    `json:"dirty"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	Kernel      string  `json:"kernel"`
	Connections int     `json:"connections"`
	Workers     int     `json:"replay_workers"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Quick       bool    `json:"quick"`
	Transport   string  `json:"transport"`
}

// resultFile is one full set of runs.
type resultFile struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

func readProvenance(seed int64, seconds float64, quick bool) provenance {
	p := provenance{
		Commit:      "unknown",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		Connections: connections,
		Workers:     replayWorkers(),
		Seed:        seed,
		Seconds:     seconds,
		Quick:       quick,
		Transport:   "loopback",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(st) > 0
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// endToEnd returns the value of a workload's end-to-end metric.
func (r *resultFile) endToEnd(workload, name string) (float64, bool) {
	for _, w := range r.Workloads {
		if w.Name == workload && w.EndToEnd != nil {
			m, ok := w.EndToEnd.Metrics[name]
			return m.Value, ok
		}
	}
	return 0, false
}

// spread is the distance between the first and third quartile as a
// share of the median — the driver's own rule
// (statistics.quantiles(values, n=4), the exclusive method). Below four
// values there are no quartiles to speak of and the range stands in.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	med := median(s) // sorts s
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	quart := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}

// sameProvenance refuses to compare results measured differently.
func sameProvenance(a, b provenance) error {
	switch {
	case a.NProc != b.NProc:
		return fmt.Errorf("nproc differs: %d vs %d", a.NProc, b.NProc)
	case a.Connections != b.Connections:
		return fmt.Errorf("connections differ: %d vs %d", a.Connections, b.Connections)
	case a.Seconds != b.Seconds || a.Quick != b.Quick:
		return fmt.Errorf("durations differ: %gs quick=%v vs %gs quick=%v", a.Seconds, a.Quick, b.Seconds, b.Quick)
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	}
	return nil
}

// compare prints one row per (workload, end-to-end metric): both sides'
// medians over their sets, the bound, and a verdict. Each side is one or
// more result files of one set each.
func compare(w io.Writer, sp *spec, aPaths, bPaths []string) error {
	load := func(paths []string) ([]*resultFile, error) {
		var sets []*resultFile
		for _, p := range paths {
			r, err := readResult(p)
			if err != nil {
				return nil, err
			}
			if len(sets) > 0 {
				if err := sameProvenance(sets[0].Provenance, r.Provenance); err != nil {
					return nil, fmt.Errorf("%s: %w", p, err)
				}
			}
			sets = append(sets, r)
		}
		return sets, nil
	}
	a, err := load(aPaths)
	if err != nil {
		return err
	}
	b, err := load(bPaths)
	if err != nil {
		return err
	}
	if err := sameProvenance(a[0].Provenance, b[0].Provenance); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	// Rates and cache sizes are part of the workload table compiled into
	// the harness; results whose recorded configs differ were measured
	// by different harnesses.
	for i, wa := range a[0].Workloads {
		if i < len(b[0].Workloads) && fmt.Sprint(wa.Config) != fmt.Sprint(b[0].Workloads[i].Config) {
			return fmt.Errorf("refusing to compare: workload %s was configured differently", wa.Name)
		}
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			collect := func(sets []*resultFile) []float64 {
				var xs []float64
				for _, s := range sets {
					if v, ok := s.endToEnd(wl.Name, m.Name); ok {
						xs = append(xs, v)
					}
				}
				return xs
			}
			xa, xb := collect(a), collect(b)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			wide := spread(xa)
			if s := spread(xb); s > wide {
				wide = s
			}
			ma, mb := median(append([]float64(nil), xa...)), median(append([]float64(nil), xb...))
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+7.2f%% %7.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*m.Bound, verdict(m, ma, mb, wide))
		}
	}
	return nil
}

// verdict classes B against A: worse or better when the medians differ
// by more than the bound in that direction, unresolved when the
// run-to-run spread is itself wider than the bound, same otherwise.
func verdict(m specMetric, a, b, wide float64) string {
	if wide > m.Bound {
		return "unresolved"
	}
	change := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "same"
}

// printSpreads prints, per (workload, end-to-end metric), the values of
// every set and their spread against the bound: the A/A table.
func printSpreads(w io.Writer, sp *spec, sets []*resultFile) {
	fmt.Fprintf(w, "%-12s %-20s %14s %9s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "values")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			var xs []float64
			for _, s := range sets {
				if v, ok := s.endToEnd(wl.Name, m.Name); ok {
					xs = append(xs, v)
				}
			}
			if len(xs) == 0 {
				continue
			}
			strs := make([]string, len(xs))
			for i, x := range xs {
				strs[i] = fmt.Sprintf("%.6g", x)
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			fmt.Fprintf(w, "%-12s %-20s %14.6g %8.2f%% %7.1f%%  %s\n",
				wl.Name, m.Name, median(sorted), 100*spread(xs), 100*m.Bound, strings.Join(strs, " "))
		}
	}
}
