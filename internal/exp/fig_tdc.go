package exp

import (
	"fmt"

	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/tdc"
	"github.com/scip-cache/scip/internal/trace"
)

func init() {
	register(Runner{Name: "fig6", Title: "Figure 6: TDC deployment — BTO traffic, BTO ratio, latency", Run: runFig6})
}

// TDCTrace generates the deployment-timeline workload: a TDC-flavoured
// image trace spanning `days` days. One-hit-wonder share and catalog
// drift are calibrated so the pre-deployment operating point sits in the
// paper's regime (BTO ratio around ten percent, a couple hundred ms mean
// latency) with genuine steady-state ZRO pressure for SCIP to relieve.
func TDCTrace(scale float64, seed int64, days int64) (*trace.Trace, error) {
	reqs := int(20e6 * scale * float64(days))
	if reqs < 50_000 {
		reqs = 50_000
	}
	cfg := gen.Config{
		Name: "TDC", Seed: seed,
		Requests:    reqs,
		CatalogSize: max(reqs/80, 1_000),
		ZipfAlpha:   0.9,
		OneHitFrac:  0.08,
		EchoProb:    0.3, EchoDelay: 300, EchoTailFrac: 0.6,
		EpochRequests: reqs / int(2*days), DriftFrac: 0.06,
		SizeMean: 44 * 1024, SizeSigma: 1.4, OneHitSizeBoost: 2.5,
		MinSize: 128, MaxSize: 16 << 20,
		Duration: days * 86_400,
	}
	return gen.Generate(cfg)
}

// TDCConfig sizes the hierarchy for the generated workload so the
// pre-deployment operating point matches the paper's regime.
func TDCConfig(tr *trace.Trace, deployAt int64, seed int64) tdc.Config {
	wss := float64(tr.ComputeStats().WorkingSetSize)
	return tdc.Config{
		OCCapacity: int64(0.02 * wss),
		DCCapacity: int64(0.10 * wss),
		DeployAt:   deployAt,
		Seed:       seed,
	}
}

// runFig6 reproduces Figure 6: the 14-day TDC timeline with SCIP deployed
// at day 7, reporting the BTO bandwidth/ratio and latency series and the
// before/after deltas of §5.2.
func runFig6(cfg Config) error {
	days := int64(14)
	if cfg.Quick {
		days = 4
	}
	// The TDC timeline is one stateful replay — inherently serial — so it
	// is a single cell on the experiment pool: it cannot fan out, but it
	// shares the pool's job accounting with the grid figures.
	cells, err := runJobs(cfg, []func() (*tdc.Result, error){func() (*tdc.Result, error) {
		tr, err := TDCTrace(cfg.Scale, cfg.Seeds[0], days)
		if err != nil {
			return nil, err
		}
		return tdc.Run(tr, TDCConfig(tr, days/2*86_400, cfg.Seeds[0])), nil
	}})
	if err != nil {
		return err
	}
	res := cells[0]
	// Normalise the traffic axis to the paper's pre-deployment operating
	// point (15.25 Gbps): the simulated byte volume is scale-dependent,
	// while the relative change is the reproduced quantity.
	const paperPreGbps = 15.25
	preBytes := 0.0
	if res.Deployed > 0 {
		for _, b := range res.Buckets[:res.Deployed] {
			preBytes += float64(b.BTOBytes)
		}
		preBytes /= float64(res.Deployed)
	}
	norm := func(bytes int64) float64 {
		if preBytes == 0 {
			return 0
		}
		return float64(bytes) / preBytes * paperPreGbps
	}
	header(cfg.Out, "# Figure 6 — TDC deployment timeline (scale %.4g, %d days, deploy at day %d)", cfg.Scale, days, days/2)
	header(cfg.Out, "# BTO(Gbps) normalised so the pre-deployment mean equals the paper's 15.25 Gbps")
	header(cfg.Out, "%-10s %10s %12s %12s %10s", "bucket(h)", "requests", "BTO(Gbps)", "BTO-ratio", "lat(ms)")
	for i, b := range res.Buckets {
		marker := ""
		if i == res.Deployed {
			marker = "  <-- SCIP deployed"
		}
		fmt.Fprintf(cfg.Out, "%-10d %10d %12.3f %12.4f %10.1f%s\n",
			b.StartTime/3600, b.Requests, norm(b.BTOBytes), b.BTORatio(), b.MeanLatencyMs(), marker)
	}
	fmt.Fprintln(cfg.Out, res.Summary())
	// Steady-state deltas: exclude the cold-start ramp (the first quarter
	// of the pre-deployment window) so the comparison is fill-state fair,
	// like the paper's monitoring dashboards.
	if res.Deployed > 1 && res.Deployed < len(res.Buckets) {
		agg := func(bs []tdc.Bucket) (ratio, lat, bytesPerBucket float64) {
			var r, l, by, n float64
			for _, b := range bs {
				r += b.BTORatio()
				l += b.MeanLatencyMs()
				by += float64(b.BTOBytes)
				n++
			}
			return r / n, l / n, by / n
		}
		preR, preL, preB := agg(res.Buckets[res.Deployed/4 : res.Deployed])
		postR, postL, postB := agg(res.Buckets[res.Deployed:])
		fmt.Fprintf(cfg.Out,
			"steady-state deltas: BTO-ratio %.2f%% -> %.2f%% (paper 8.87%% -> 6.59%%) | BTO-traffic %+.1f%% (paper -25.7%%) | latency %.1f -> %.1f ms, %+.1f%% (paper -26.1%%)\n",
			100*preR, 100*postR, 100*(postB/preB-1), preL, postL, 100*(postL/preL-1))
	}
	return nil
}
