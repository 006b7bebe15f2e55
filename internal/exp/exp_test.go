package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func quickCfg(out *bytes.Buffer) Config {
	return Config{Scale: 0.0008, Seeds: []int64{1}, Out: out, Quick: true}
}

func TestRunnersRegistered(t *testing.T) {
	want := []string{"ablation", "ext", "fig1", "fig10", "fig11", "fig12", "fig3", "fig4",
		"fig6", "fig7", "fig8", "fig9", "table1"}
	got := Runners()
	if len(got) != len(want) {
		t.Fatalf("%d runners registered, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Name != want[i] {
			t.Fatalf("runner %d = %q, want %q", i, r.Name, want[i])
		}
		if r.Title == "" || r.Run == nil {
			t.Fatalf("runner %q incomplete", r.Name)
		}
	}
	if _, ok := Lookup("fig8"); !ok {
		t.Fatal("Lookup(fig8) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
}

// TestEveryExperimentRunsQuick smoke-runs every registered experiment at a
// tiny scale and checks it produces table output without error.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs every experiment")
	}
	for _, r := range Runners() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			var out bytes.Buffer
			if err := r.Run(quickCfg(&out)); err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			if out.Len() == 0 {
				t.Fatalf("%s produced no output", r.Name)
			}
			if !strings.Contains(out.String(), "CDN") && r.Name != "fig6" {
				t.Fatalf("%s output lacks workload rows:\n%s", r.Name, out.String())
			}
		})
	}
}

func TestFig7ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var out bytes.Buffer
	cfg := Config{Scale: 0.002, Seeds: []int64{1, 2}, Out: &out}
	r, _ := Lookup("fig7")
	if err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	// Every row must show SCIP beating LRU (the paper's headline).
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "CDN") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			t.Fatalf("malformed row %q", line)
		}
		var lru, scipMR float64
		if _, err := fmtSscan(fields[1], &lru); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(fields[3], &scipMR); err != nil {
			t.Fatal(err)
		}
		if scipMR > lru+0.02 {
			t.Errorf("%s: SCIP %.4f materially worse than LRU %.4f", fields[0], scipMR, lru)
		}
	}
}

func TestScaledInterval(t *testing.T) {
	if scaledInterval(1) != 50_000*50 {
		t.Fatalf("scale 1 interval = %d", scaledInterval(1))
	}
	if scaledInterval(0.0001) != 1000 {
		t.Fatal("interval floor not applied")
	}
}

func TestTraceCacheMemoises(t *testing.T) {
	traceCache.Clear()
	a, err := getTrace("CDN-T", 0.0005, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := getTrace("CDN-T", 0.0005, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("trace not memoised")
	}
	traceCache.Clear()
	c, err := getTrace("CDN-T", 0.0005, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("traceCache.Clear did not clear")
	}
}

func TestMean(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("mean(nil) != 0")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean broken")
	}
}

// fmtSscan wraps fmt.Sscan for float parsing in tests.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
