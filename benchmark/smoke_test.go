package main

import (
	"fmt"
	"os"
	"testing"
)

// The harness resolves BENCHMARK.json and benchmark/out relative to the
// repository root, which is where run.sh starts it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	killAll()
	os.Exit(code)
}

func TestSpecNamesTheWorkloadTable(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the harness has %d", specFile, len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s says %q, the harness %q", i, specFile, sp.Workloads[i].Name, w.name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
}

// The -quick smoke: every workload, untraced and traced, at durations
// ÷ 20 and scale ÷ 10, against the real binaries. render() fails a run
// that leaves a declared metric unmeasured or measures an undeclared
// one, so a green smoke run also proves BENCHMARK.json and the harness
// agree on every name.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the daemons")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(outDir+"/bin", 0o755); err != nil {
		t.Fatal(err)
	}
	h := &harness{spec: sp, seed: 1, seconds: float64(sp.RunSeconds) / 20, quick: true}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := h.run(w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			run, declared := res.EndToEnd, sp.EndToEnd
			if traced {
				run, declared = res.PerLayer, sp.PerLayer
			}
			if !run.Correct {
				t.Errorf("%s traced=%v: not correct: %v", w.name, traced, res.Gate)
			}
			if run.Attempted < 1 || run.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, run.Attempted, run.Failed)
			}
			if len(run.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.name, traced, len(run.Metrics), len(declared))
			}
			if !traced {
				for _, m := range declared {
					if v := run.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end %s = %g, must never be 0", w.name, m.Name, v)
					}
				}
			}
			if traced && w.kind != kindReplay && (res.Budget == nil || res.Budget.Requests == 0) {
				t.Errorf("%s: no budget from the traced run", w.name)
			}
		}
	}
}
