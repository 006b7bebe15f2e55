// Command scip-bench regenerates the paper's tables and figures on the
// synthetic workload profiles.
//
// Usage:
//
//	scip-bench [-scale 0.01] [-seeds 3] [-quick] [-parallel] [-workers N] [-json BENCH.json] \
//	    [-cpuprofile cpu.pprof] [-memprofile mem.pprof] \
//	    [all|table1|fig1|fig3|fig4|fig6|fig7|fig8|fig9|fig10|fig11|fig12|ablation ...]
//
// With no experiment arguments it lists the available experiments.
//
// Independent experiment cells run on a bounded worker pool (-parallel,
// default on, sized by GOMAXPROCS or -workers); table output is
// byte-identical to the serial run (-parallel=false). Per-figure wall
// times are written as machine-readable JSON to the -json path.
// -cpuprofile/-memprofile write pprof profiles covering the selected
// experiments (see EXPERIMENTS.md "Profiling the hot paths").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/scip-cache/scip/internal/exp"
	"github.com/scip-cache/scip/internal/runner"
	"github.com/scip-cache/scip/internal/sim"
)

// benchReport is the BENCH.json document: one timing entry per figure
// plus the run configuration, so speedup comparisons (serial vs parallel)
// are reproducible from the artefacts alone.
type benchReport struct {
	GeneratedUnix int64            `json:"generated_unix"`
	Scale         float64          `json:"scale"`
	Seeds         int              `json:"seeds"`
	Quick         bool             `json:"quick"`
	Parallel      bool             `json:"parallel"`
	Workers       int              `json:"workers"`
	GoMaxProcs    int              `json:"gomaxprocs"`
	Experiments   []experimentTime `json:"experiments"`
	TotalSeconds  float64          `json:"total_seconds"`
}

type experimentTime struct {
	Name    string  `json:"name"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
}

func main() {
	scale := flag.Float64("scale", 0.01, "trace scale relative to the paper's full workloads")
	seeds := flag.Int("seeds", 3, "number of generation seeds to average over")
	quick := flag.Bool("quick", false, "trim parameter grids for a smoke run")
	parallel := flag.Bool("parallel", true, "run independent experiment cells on a worker pool (output is byte-identical either way)")
	workers := flag.Int("workers", 0, "worker pool size with -parallel (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "BENCH.json", "write per-figure timings as JSON to this path (empty disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()

	if *cpuProfile != "" || *memProfile != "" {
		stopProfiles, err := sim.StartProfiles(*cpuProfile, *memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if err := stopProfiles(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg := exp.DefaultConfig(os.Stdout)
	cfg.Scale = *scale
	cfg.Quick = *quick
	cfg.Seeds = cfg.Seeds[:0]
	for i := 0; i < *seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, int64(i+1))
	}
	cfg.Workers = 1
	if *parallel {
		cfg.Workers = *workers // 0 sizes the pool by GOMAXPROCS
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Println("available experiments:")
		for _, r := range exp.Runners() {
			fmt.Printf("  %-10s %s\n", r.Name, r.Title)
		}
		fmt.Println("  all        run everything")
		return
	}
	var selected []exp.Runner
	for _, a := range args {
		if a == "all" {
			selected = exp.Runners()
			break
		}
		r, ok := exp.Lookup(a)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
			os.Exit(2)
		}
		selected = append(selected, r)
	}
	report := benchReport{
		GeneratedUnix: time.Now().Unix(),
		Scale:         *scale,
		Seeds:         *seeds,
		Quick:         *quick,
		Parallel:      *parallel,
		Workers:       runner.Workers(cfg.Workers),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}
	total := time.Now()
	for _, r := range selected {
		start := time.Now()
		fmt.Printf("== %s: %s\n", r.Name, r.Title)
		if err := r.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.Name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Printf("== %s done in %s\n\n", r.Name, elapsed.Round(time.Millisecond))
		report.Experiments = append(report.Experiments, experimentTime{
			Name: r.Name, Title: r.Title, Seconds: elapsed.Seconds(),
		})
	}
	report.TotalSeconds = time.Since(total).Seconds()
	if *jsonPath != "" {
		if err := sim.WriteJSON(*jsonPath, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("timings written to %s (total %.2fs, %d workers)\n",
			*jsonPath, report.TotalSeconds, report.Workers)
	}
}
