//go:build !race

package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The ML-heavy figures (fig4 classifier accuracy, fig10/fig12 learned
// policies) and the policy-table figures (fig7, fig8, scorers) are
// pinned byte-for-byte against committed goldens at quick benchmark
// scale. The goldens were captured before the flat-matrix
// kernel rewrite, so they prove the rewrite is output-preserving: any
// change to bin thresholds, split tie-breaking, training-sample order or
// model arithmetic shows up as a table diff here. Regenerate with
// `go test ./internal/exp -run TestGolden -update-golden` — but only
// when a change is *supposed* to alter figure output.
//
// The build tag keeps the replays out of `go test -race` runs: the
// goldens run the serial path (Workers: 1), so the race detector would
// triple the cost without exercising any concurrency.

var updateGolden = flag.Bool("update-golden", false, "rewrite the figure golden files")

// goldenCfg is the quick benchmark-scale configuration the goldens pin.
func goldenCfg(out *bytes.Buffer) Config {
	return Config{Scale: 0.001, Seeds: []int64{1}, Quick: true, Workers: 1, Out: out}
}

func runGolden(t *testing.T, name string) {
	t.Helper()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	var buf bytes.Buffer
	if err := r.Run(goldenCfg(&buf)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	path := filepath.Join("testdata", name+"_quick.golden")
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
		t.Errorf("%s output diverges from golden %s:\n%s", name, path, diffLines(want, buf.Bytes()))
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

// TestGolden pins every goldened table. fig7, fig8 and scorers cover
// the plain-name policy rows (Figure 8's insertion baselines, SCI and
// the scorer mixes) that fig10/fig12 do not.
func TestGolden(t *testing.T) {
	for _, name := range []string{"fig4", "fig7", "fig8", "fig10", "fig12", "scorers"} {
		t.Run(name, func(t *testing.T) { runGolden(t, name) })
	}
}
