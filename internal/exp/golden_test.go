//go:build !race

package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The ML-heavy figures (fig4 classifier accuracy, fig10/fig12 learned
// policies) and the policy-table figures (fig7, fig8) are
// pinned byte-for-byte against committed goldens at quick benchmark
// scale. The goldens were captured before the flat-matrix
// kernel rewrite, so they prove the rewrite is output-preserving: any
// change to bin thresholds, split tie-breaking, training-sample order or
// model arithmetic shows up as a table diff here. Regenerate with
// `go test ./internal/exp -run TestGolden -update-golden` — but only
// when a change is *supposed* to alter figure output.
//
// fig7 is pinned a second time at the figures' scale (0.01, two seeds),
// the LRU/SCI/SCIP table as the paper's figures report it. At quick
// scale SCIP's global ω pair still decides several percent of
// placements, so a change that is neutral at the figures' scale can move
// the quick goldens; the 0.01 golden is the one that shows it is neutral.
//
// The build tag keeps the replays out of `go test -race` runs: the quick
// goldens run the serial path (Workers: 1) and the 0.01 golden is not
// concurrency's fence (the runner's invariance tests are), so the race
// detector would triple the cost without exercising any concurrency.

var updateGolden = flag.Bool("update-golden", false, "rewrite the figure golden files")

// golden is one pinned table: an experiment, the configuration it runs
// at and the file under testdata/ that holds its expected output.
type golden struct {
	name, file string
	cfg        Config
}

// goldens lists every pinned table; -update-golden rewrites them all.
var goldens = []golden{
	{"fig4", "fig4_quick.golden", goldenQuick},
	{"fig7", "fig7_quick.golden", goldenQuick},
	{"fig8", "fig8_quick.golden", goldenQuick},
	{"fig10", "fig10_quick.golden", goldenQuick},
	{"fig12", "fig12_quick.golden", goldenQuick},
	{"fig7", "fig7_0.01.golden", Config{Scale: 0.01, Seeds: []int64{1, 2}}},
}

// goldenQuick is the quick benchmark-scale configuration.
var goldenQuick = Config{Scale: 0.001, Seeds: []int64{1}, Quick: true, Workers: 1}

func runGolden(t *testing.T, g golden) {
	t.Helper()
	r, ok := Lookup(g.name)
	if !ok {
		t.Fatalf("unknown experiment %q", g.name)
	}
	var buf bytes.Buffer
	cfg := g.cfg
	cfg.Out = &buf
	if err := r.Run(cfg); err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	path := filepath.Join("testdata", g.file)
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s output diverges from golden %s:\n%s", g.name, path, diffLines(want, buf.Bytes()))
	}
}

// diffLines renders the first divergent lines of got vs want.
func diffLines(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	shown := 0
	for i := 0; i < n && shown < 8; i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			fmt.Fprintf(&out, "line %d:\n  want: %s\n  got:  %s\n", i+1, wl, gl)
			shown++
		}
	}
	return out.String()
}

// TestGolden pins every goldened table. fig7 and fig8 cover the
// plain-name policy rows (Figure 8's insertion baselines and SCI) that
// fig10/fig12 do not. Each subtest is named after its golden file less
// the "_quick.golden" or ".golden" suffix (fig7, fig7_0.01).
func TestGolden(t *testing.T) {
	for _, g := range goldens {
		sub := strings.TrimSuffix(strings.TrimSuffix(g.file, ".golden"), "_quick")
		t.Run(sub, func(t *testing.T) { runGolden(t, g) })
	}
}
