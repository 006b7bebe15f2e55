// Command benchmark is the repository's benchmark: one command that
// measures the system end to end — replay throughput in process, and
// client-observed latency, CPU and memory of the real scip-serve and
// scip-route binaries over loopback sockets — and, in a separate traced
// run, layer by layer from outside the program. README.md in this
// directory defines every workload and metric.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                       every workload, untraced then traced
//	bash benchmark/run.sh -quick                the same in seconds, as a smoke test
//	bash benchmark/run.sh -only serve-hot       one workload
//	bash benchmark/run.sh -sets 5               five untraced sets and their spreads (A/A)
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// The last form is the driver's: one run of one workload, whose result
// is the JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// workloadTimeout bounds one run of one workload; past it every child
// is killed and the command fails.
const workloadTimeout = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload once and print its result as the last line (driver mode)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs: trace and arrival schedule")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		traced       = flag.Int("trace", 0, "driver mode: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run")
		quick        = flag.Bool("quick", false, "smoke test: durations ÷ 20, trace scale ÷ 10")
		only         = flag.String("only", "", "full mode: run only this workload")
		sets         = flag.Int("sets", 0, "run this many untraced sets back to back and print each metric's spread")
		doCompare    = flag.Bool("compare", false, "compare two result files (or comma-separated lists of them): -compare A.json B.json")
		out          = flag.String("out", filepath.Join(outDir, "result.json"), "full mode: result file")
	)
	flag.Parse()

	// Children die with the harness on every exit path: fail() and the
	// signal handler kill them, a panic unwinds through the deferred
	// killAll, and Pdeathsig covers a SIGKILL of the harness itself.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	sp, err := loadSpec()
	if err != nil {
		fail(err)
	}
	if *doCompare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two result files"))
		}
		if err := compare(os.Stdout, sp, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")); err != nil {
			fail(err)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *quick {
		*seconds /= 20
	}
	if err := os.MkdirAll(filepath.Join(outDir, "bin"), 0o755); err != nil {
		fail(err)
	}
	h := &harness{spec: sp, seed: *seed, seconds: *seconds, quick: *quick}

	switch {
	case *workloadName != "":
		w, err := findWorkload(*workloadName)
		if err != nil {
			fail(err)
		}
		res, err := h.run(w, *traced == 1)
		if err != nil {
			fail(err)
		}
		run := res.EndToEnd
		if *traced == 1 {
			run = res.PerLayer
		}
		line, err := json.Marshal(run)
		if err != nil {
			fail(err)
		}
		for _, g := range res.Gate {
			fmt.Fprintln(os.Stderr, "benchmark: gate failed:", g)
		}
		fmt.Println(string(line))
		if !run.Correct {
			killAll()
			os.Exit(1)
		}
	case *sets > 0:
		if err := h.runSets(*sets, *only); err != nil {
			fail(err)
		}
	default:
		file, err := h.runAll(*only, true)
		if err != nil {
			fail(err)
		}
		if err := writeJSON(*out, file); err != nil {
			fail(err)
		}
		fmt.Printf("\nresult written to %s\n", *out)
		if !file.correct() {
			killAll()
			os.Exit(1)
		}
	}
}

func fail(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// harness carries what every run shares.
type harness struct {
	spec    *spec
	seed    int64
	seconds float64
	quick   bool
	buildS  float64 // go build of the two daemons, once per process; 0 = not built yet
}

// run measures one workload once — untraced for the end-to-end metrics
// or traced for the per-layer ones — under the per-workload timeout.
func (h *harness) run(w workload, traced bool) (*workloadResult, error) {
	if h.quick {
		w = w.quick()
	}
	watchdog := time.AfterFunc(workloadTimeout, func() {
		killAll()
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded %s; children killed; goroutines:\n", w.name, workloadTimeout)
		buf := make([]byte, 1<<20)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		os.Exit(3)
	})
	defer watchdog.Stop()
	debug.FreeOSMemory() // every workload starts from the same heap, whatever ran before it
	if w.kind != kindReplay && h.buildS == 0 {
		d, err := buildDaemons()
		if err != nil {
			return nil, err
		}
		h.buildS = d.Seconds()
	}
	res := &workloadResult{Name: w.name, Config: w.config(h.seconds)}
	var err error
	if traced {
		err = h.perLayer(w, res)
	} else {
		err = h.endToEnd(w, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

// config is the workload's recorded shape, for the provenance block.
func (w workload) config(seconds float64) map[string]any {
	c := map[string]any{
		"policy": policyName, "shards": shardCount, "policy_seed": policySeed,
		"cache_bytes": w.cacheBytes, "seconds": seconds,
	}
	if w.profile != "" {
		c["profile"], c["scale"] = string(w.profile), w.scale
	}
	if w.kind != kindReplay {
		c["warm_requests"], c["rate_mid"], c["rate_high"] = w.warm, w.mid, w.high
		c["put_every"], c["delete_every"] = w.putEvery, w.deleteEvery
		c["origin_latency"] = w.originLatency.String()
	}
	return c
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, so one slow process start does not decide it.
const setupRepeats = 3

// endToEnd fills res.EndToEnd from an untraced run.
func (h *harness) endToEnd(w workload, res *workloadResult) error {
	got := values{}
	run := &runResult{}
	if w.kind == kindReplay {
		r, err := runReplay(w, h.seed, h.seconds, setupRepeats)
		if err != nil {
			return err
		}
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return err
		}
		got["req_per_s"] = median(r.reqPerS)
		got["lat_p50_us"] = median(r.p50US)
		got["cpu_us_per_req"] = r.cpuPerReq
		got["rss_mib"] = rss
		got["miss_ratio"] = r.snap.MissRatio()
		got["byte_miss_ratio"] = r.snap.ByteMissRatio()
		got["origin_fetch_ratio"] = r.snap.MissRatio() // in a replay every miss is one fetch from the origin
		got["setup_s"] = median(r.setupS)
		run.Attempted = int64(r.requests) * int64(len(r.reqPerS)+1)
		res.Gate = r.gateErrors
		res.count("requests", r.requests)
		res.count("repetitions", len(r.reqPerS))
		res.count("chunks_per_repetition", r.requests/chunkReqs)
	} else {
		r, err := runServed(w, h.seed, h.seconds, 0, setupRepeats)
		if err != nil {
			return err
		}
		q := windowedQuantiles(r.mid.samples, r.mid.span, window, latOf, 0.50)
		got["req_per_s"] = r.mid.reqPerS()
		got["lat_p50_us"] = q[0]
		got["cpu_us_per_req"] = r.mid.nodeCPU + r.mid.routerCPU
		got["rss_mib"] = r.rssMiB
		got["miss_ratio"] = r.missRatio()
		got["byte_miss_ratio"] = r.byteMissRatio()
		got["origin_fetch_ratio"] = r.originFetchRatio()
		got["setup_s"] = median(r.setupS)
		run.Attempted, run.Failed = r.life.attempted, r.life.failed
		res.Gate = r.gateErrors
		res.count("warm_requests", w.warm)
		res.count("mid_requests", len(r.mid.samples))
		res.count("windows", int((r.mid.span+window/2)/window))
	}
	var err error
	if run.Metrics, err = render(h.spec.EndToEnd, got); err != nil {
		return err
	}
	run.Correct = len(res.Gate) == 0 && run.Failed == 0
	res.EndToEnd = run
	return nil
}

// runAll runs every workload (or only one): untraced, then — when
// withTrace — traced, printing each as it completes.
func (h *harness) runAll(only string, withTrace bool) (*resultFile, error) {
	file := &resultFile{Provenance: readProvenance(h.seed, h.seconds, h.quick)}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		res, err := h.run(w, false)
		if err != nil {
			return nil, err
		}
		if withTrace {
			tr, err := h.run(w, true)
			if err != nil {
				return nil, err
			}
			res.PerLayer, res.Budget = tr.PerLayer, tr.Budget
			res.Gate = append(res.Gate, tr.Gate...)
			res.Samples = append(res.Samples, tr.Samples...)
			res.Notes = append(res.Notes, tr.Notes...)
		}
		h.print(res)
		file.Workloads = append(file.Workloads, *res)
	}
	if len(file.Workloads) == 0 {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	return file, nil
}

func (f *resultFile) correct() bool {
	for _, w := range f.Workloads {
		if (w.EndToEnd != nil && !w.EndToEnd.Correct) || (w.PerLayer != nil && !w.PerLayer.Correct) {
			return false
		}
	}
	return true
}

// runSets runs n untraced sets back to back, writes each to its own
// result file and prints every end-to-end metric's spread over them.
func (h *harness) runSets(n int, only string) error {
	var sets []*resultFile
	for k := 1; k <= n; k++ {
		fmt.Printf("=== set %d of %d\n", k, n)
		file, err := h.runAll(only, false)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("set-%d.json", k))
		if err := writeJSON(path, file); err != nil {
			return err
		}
		fmt.Printf("set %d written to %s\n\n", k, path)
		sets = append(sets, file)
	}
	printSpreads(os.Stdout, h.spec, sets)
	for _, s := range sets {
		if !s.correct() {
			return fmt.Errorf("a set failed the correctness gate")
		}
	}
	return nil
}

// print renders one workload's results: every metric by name with its
// unit, sample counts, the budget table, and gate failures if any.
func (h *harness) print(res *workloadResult) {
	fmt.Printf("\n== %s", res.Name)
	for _, wl := range h.spec.Workloads {
		if wl.Name == res.Name {
			fmt.Printf(" — %s", wl.Why)
		}
	}
	fmt.Println()
	fmt.Print("  samples:")
	for _, c := range res.Samples {
		fmt.Printf(" %s=%d", c.Name, c.N)
	}
	fmt.Println()
	if res.EndToEnd != nil {
		fmt.Printf("  end to end (tracing off; %d attempted, %d failed):\n", res.EndToEnd.Attempted, res.EndToEnd.Failed)
		for _, m := range h.spec.EndToEnd {
			v := res.EndToEnd.Metrics[m.Name]
			fmt.Printf("    %-28s %16.6g %-8s (%s is better, bound %.1f%%)\n", m.Name, v.Value, v.Unit, m.Better, 100*m.Bound)
		}
	}
	if res.PerLayer != nil {
		fmt.Println("  per layer (traced run, micro-timings, scrapes; 0 = the workload does not use the layer):")
		for _, m := range h.spec.PerLayer {
			v := res.PerLayer.Metrics[m.Name]
			fmt.Printf("    %-34s %16.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	if res.Budget != nil {
		res.Budget.print(os.Stdout, res.Name)
	}
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, g := range res.Gate {
		fmt.Printf("  GATE FAILED: %s\n", g)
	}
}
