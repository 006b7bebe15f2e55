package exp

import (
	"bytes"
	"fmt"

	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/ml"
	"github.com/scip-cache/scip/internal/trace"
	"github.com/scip-cache/scip/internal/zro"
)

func init() {
	register(Runner{Name: "table1", Title: "Table 1: workload summary statistics", Run: runTable1})
	register(Runner{Name: "fig1", Title: "Figure 1: ZRO/A-ZRO/P-ZRO/A-P-ZRO shares and reducible miss ratios", Run: runFig1})
	register(Runner{Name: "fig3", Title: "Figure 3: theoretical miss ratios with oracle LRU placement", Run: runFig3})
	register(Runner{Name: "fig4", Title: "Figure 4: classifier accuracy on ZRO / P-ZRO / both", Run: runFig4})
}

// runTable1 prints the generated workloads' Table-1 statistics next to
// the paper's. Generating the three profile traces dominates, so each
// profile's (generate + scan) is one job.
func runTable1(cfg Config) error {
	rows, err := runJobs(cfg, profileJobs(func(p gen.Profile) (trace.Stats, error) {
		tr, err := getTrace(p, cfg.Scale, cfg.Seeds[0])
		if err != nil {
			return trace.Stats{}, err
		}
		return tr.ComputeStats(), nil
	}))
	if err != nil {
		return err
	}
	header(cfg.Out, "# Table 1 — workload summary (scale %.4g, seed %d)", cfg.Scale, cfg.Seeds[0])
	header(cfg.Out, "%-8s %12s %12s %12s %10s %12s %10s", "trace", "requests", "unique", "meanSizeKB", "minSize", "maxSizeMB", "wssGB")
	for i, p := range gen.Profiles {
		s := rows[i]
		fmt.Fprintf(cfg.Out, "%-8s %12d %12d %12.2f %10d %12.2f %10.3f\n",
			s.Name, s.TotalRequests, s.UniqueObjects, s.MeanObjectSize/1024,
			s.MinObjectSize, float64(s.MaxObjectSize)/(1<<20), float64(s.WorkingSetSize)/(1<<30))
		ps := p.PaperStats()
		fmt.Fprintf(cfg.Out, "%-8s %12d %12d %12.2f %10d %12.2f %10.3f  (paper, scale 1)\n",
			"", ps.TotalRequests, ps.UniqueObjects, ps.MeanObjectSize/1024,
			ps.MinObjectSize, float64(ps.MaxObjectSize)/(1<<20), float64(ps.WorkingSetSize)/(1<<30))
	}
	return nil
}

// profileJobs wraps one job per workload profile.
func profileJobs[T any](fn func(p gen.Profile) (T, error)) []func() (T, error) {
	jobs := make([]func() (T, error), len(gen.Profiles))
	for i, p := range gen.Profiles {
		jobs[i] = func() (T, error) { return fn(p) }
	}
	return jobs
}

// fig1Sizes are the paper's cache sizes A–D as fractions of the working
// set X.
var fig1Sizes = []struct {
	label string
	frac  float64
}{
	{"A=0.5%X", 0.005},
	{"B=1%X", 0.01},
	{"C=5%X", 0.05},
	{"D=10%X", 0.10},
}

// runFig1 reproduces Figure 1: the shares of ZROs among missing objects
// (a), A-ZROs among ZROs (c), P-ZROs among hits (d), A-P-ZROs among
// P-ZROs (f), and the LRU miss ratios with the oracle-reducible portion
// (b, e).
func runFig1(cfg Config) error {
	sizes := fig1Sizes
	if cfg.Quick {
		sizes = sizes[1:3]
	}
	// One job per (profile, size): each runs the analyzer and the two
	// oracle replays on the shared memoised trace.
	type fig1Cell struct {
		sum           zro.Summary
		zroMR, pzroMR float64
	}
	var jobs []func() (fig1Cell, error)
	for _, p := range gen.Profiles {
		for _, sz := range sizes {
			jobs = append(jobs, func() (fig1Cell, error) {
				tr, err := getTrace(p, cfg.Scale, cfg.Seeds[0])
				if err != nil {
					return fig1Cell{}, err
				}
				capBytes := int64(sz.frac * float64(tr.ComputeStats().WorkingSetSize))
				_, sum := zro.Analyze(tr, capBytes)
				return fig1Cell{
					sum:    sum,
					zroMR:  zro.OracleReplay(tr, capBytes, true, false, 1),
					pzroMR: zro.OracleReplay(tr, capBytes, false, true, 1),
				}, nil
			})
		}
	}
	cells, err := runJobs(cfg, jobs)
	if err != nil {
		return err
	}
	header(cfg.Out, "# Figure 1 — ZRO family shares under LRU (scale %.4g)", cfg.Scale)
	header(cfg.Out, "%-8s %-8s %8s %8s %8s %8s %8s %10s %10s", "trace", "size", "ZRO%", "A-ZRO%", "P-ZRO%", "A-P-ZRO%", "lruMR", "mr(ZRO)", "mr(P-ZRO)")
	i := 0
	for _, p := range gen.Profiles {
		for _, sz := range sizes {
			c := cells[i]
			i++
			fmt.Fprintf(cfg.Out, "%-8s %-8s %8.2f %8.2f %8.2f %8.2f %8.4f %10.4f %10.4f\n",
				p, sz.label, 100*c.sum.ZROFrac(), 100*c.sum.AZROFrac(),
				100*c.sum.PZROFrac(), 100*c.sum.APZROFrac(), c.sum.MissRatio, c.zroMR, c.pzroMR)
		}
	}
	return nil
}

// runFig3 reproduces Figure 3: the theoretical miss ratio as increasing
// fractions of ZROs, P-ZROs, or both are placed at the LRU position.
func runFig3(cfg Config) error {
	fracs := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	if cfg.Quick {
		fracs = []float64{0, 0.5, 1.0}
	}
	// One job per (profile, fraction): three oracle replays each.
	var jobs []func() ([3]float64, error)
	for _, p := range gen.Profiles {
		for _, f := range fracs {
			jobs = append(jobs, func() ([3]float64, error) {
				tr, err := getTrace(p, cfg.Scale, cfg.Seeds[0])
				if err != nil {
					return [3]float64{}, err
				}
				capBytes := int64(0.05 * float64(tr.ComputeStats().WorkingSetSize)) // size C, mid panel
				return [3]float64{
					zro.OracleReplay(tr, capBytes, true, false, f),
					zro.OracleReplay(tr, capBytes, false, true, f),
					zro.OracleReplay(tr, capBytes, true, true, f),
				}, nil
			})
		}
	}
	cells, err := runJobs(cfg, jobs)
	if err != nil {
		return err
	}
	header(cfg.Out, "# Figure 3 — oracle LRU-position placement (scale %.4g)", cfg.Scale)
	header(cfg.Out, "%-8s %6s %10s %10s %10s", "trace", "frac", "mr(ZRO)", "mr(P-ZRO)", "mr(both)")
	i := 0
	for _, p := range gen.Profiles {
		for _, f := range fracs {
			c := cells[i]
			i++
			fmt.Fprintf(cfg.Out, "%-8s %6.0f%% %10.4f %10.4f %10.4f\n", p, 100*f, c[0], c[1], c[2])
		}
	}
	return nil
}

// fig4Models builds the Figure-4 classifier set. The NN width shrinks
// with the trace scale (the paper's 1024 neurons train on 100M-request
// traces).
func fig4Models(seed int64, quick bool) []ml.Classifier {
	hidden := 64
	epochs := 20
	trees := 40
	if quick {
		hidden, epochs, trees = 16, 5, 10
	}
	return []ml.Classifier{
		&ml.LinReg{},
		&ml.LogReg{Seed: seed, Epochs: epochs},
		&ml.SVM{Seed: seed, Epochs: epochs},
		&ml.NN{Hidden: hidden, Seed: seed, Epochs: epochs},
		&ml.GBM{Trees: trees},
		&ml.Bandit{Seed: seed},
	}
}

// runFig4 reproduces Figure 4: decision accuracy of six models on the
// ZRO, P-ZRO, and combined classification tasks.
func runFig4(cfg Config) error {
	sample := 4
	if cfg.Quick {
		sample = 16
	}
	// One job per profile: labelling, event collection and the three
	// model-fitting tasks all run inside the job, which renders its own
	// table rows into a buffer so the ordered assembly stays trivial.
	rows, err := runJobs(cfg, profileJobs(func(p gen.Profile) (string, error) {
		var out bytes.Buffer
		tr, err := getTrace(p, cfg.Scale, cfg.Seeds[0])
		if err != nil {
			return "", err
		}
		wss := tr.ComputeStats().WorkingSetSize
		capBytes := int64(0.05 * float64(wss))
		labels, _ := zro.Analyze(tr, capBytes)
		events := zro.CollectEvents(tr, capBytes, sample)
		tasks := []struct {
			name string
			want func(e zro.Event) (keep bool, label float64)
		}{
			{"ZRO", func(e zro.Event) (bool, float64) {
				if !e.Insertion || !labels.Resolved[e.Index] {
					return false, 0
				}
				return true, b2f(labels.ZRO[e.Index])
			}},
			{"P-ZRO", func(e zro.Event) (bool, float64) {
				if e.Insertion || !labels.Resolved[e.Index] {
					return false, 0
				}
				return true, b2f(labels.PZRO[e.Index])
			}},
			{"both", func(e zro.Event) (bool, float64) {
				if !labels.Resolved[e.Index] {
					return false, 0
				}
				return true, b2f(labels.ZRO[e.Index] || labels.PZRO[e.Index])
			}},
		}
		for _, task := range tasks {
			d := &ml.Dataset{}
			for _, e := range events {
				if keep, y := task.want(e); keep {
					// Append copies the row, so Standardize mutating the
					// dataset in place cannot touch the events shared
					// across the three tasks.
					d.Append(e.Features, y)
				}
			}
			if d.Len() < 100 {
				fmt.Fprintf(&out, "%-8s %-6s insufficient data (%d rows)\n", p, task.name, d.Len())
				continue
			}
			train, test := d.Split(0.7, cfg.Seeds[0])
			m, s := train.Standardize()
			test.ApplyScaling(m, s)
			fmt.Fprintf(&out, "%-8s %-6s", p, task.name)
			for _, c := range fig4Models(cfg.Seeds[0], cfg.Quick) {
				if err := c.Fit(train); err != nil {
					return "", fmt.Errorf("fig4 %s/%s/%s: %w", p, task.name, c.Name(), err)
				}
				fmt.Fprintf(&out, " %8.3f", ml.Accuracy(c, test))
			}
			fmt.Fprintln(&out)
		}
		return out.String(), nil
	}))
	if err != nil {
		return err
	}
	header(cfg.Out, "# Figure 4 — classifier accuracy (scale %.4g)", cfg.Scale)
	header(cfg.Out, "%-8s %-6s %8s %8s %8s %8s %8s %8s", "trace", "task", "LinReg", "LogReg", "SVM", "NN", "GBM", "MAB")
	for _, r := range rows {
		fmt.Fprint(cfg.Out, r)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
