package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// phaseResult is one open-loop phase against the real daemons.
type phaseResult struct {
	rate      float64
	span      time.Duration // scheduled length: requests ÷ rate
	samples   []sample
	tally     tally
	wall      time.Duration
	nodeCPU   float64       // µs of CPU per completed request, Σ scip-serve processes, median across windows
	routerCPU float64       // the same for scip-route
	clientCPU time.Duration // this process, over the phase
}

func (p *phaseResult) completed() int64 { return p.tally.attempted - p.tally.failed }

// reqPerS is the achieved rate: completed ÷ wall.
func (p *phaseResult) reqPerS() float64 { return float64(p.completed()) / p.wall.Seconds() }

// servedRun is the measurement of a served workload on real binaries.
type servedRun struct {
	setupS []float64 // one per set-up repetition
	genS   float64
	life   tally // everything the client sent since the daemons started
	mid    phaseResult
	high   *phaseResult // nil unless asked for
	// Scraped at the end of the run, one page per node and the router's.
	nodePages  []scrapePage
	routerPage scrapePage
	rssMiB     float64 // Σ daemons' VmHWM
	gateErrors []string
}

const warmConnections = 32

// backlogLateness is the median lateness of a phase's closing window
// beyond which the offered rate was not sustained.
const backlogLateness = 5 * time.Millisecond

// runServed sets the fleet up `setups` times (trace generation, daemon
// start to /healthz, closed-loop warm-up; the median is setup_s — the
// last fleet is the one measured), then offers midSecs of open-loop
// load at the gated rate and, when highSecs > 0, highSecs at the
// diagnostic one.
func runServed(w workload, seed int64, midSecs, highSecs float64, setups int) (*servedRun, error) {
	nMid := int(math.Round(w.mid * midSecs))
	nHigh := int(math.Round(w.high * highSecs))
	r := &servedRun{}
	var (
		f    *fleet
		cl   *client
		reqs []request
		err  error
	)
	defer func() {
		if cl != nil {
			cl.close()
		}
		if f != nil {
			f.stop()
		}
	}()
	for s := 0; s < setups; s++ {
		if cl != nil {
			cl.close()
			f.stop()
			cl, f = nil, nil
		}
		t0 := time.Now()
		if reqs, err = buildStream(w, seed, w.warm+nMid+nHigh); err != nil {
			return nil, err
		}
		r.genS = time.Since(t0).Seconds()
		if f, err = startFleet(w); err != nil {
			return nil, err
		}
		// The warm-up is closed-loop and, with a slow origin, bound by
		// latency rather than CPU: it gets more connections than the
		// measurement so that it costs less set-up time.
		warmer, err := newClient(f.target(), warmConnections, reqs)
		if err != nil {
			return nil, err
		}
		r.life = warmer.run(0, w.warm, nil).tally
		warmer.close()
		if cl, err = newClient(f.target(), connections, reqs); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if r.life.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d requests failed; first: %s", r.life.failed, r.life.attempted, r.life.firstErr)
		}
	}

	if r.mid, err = runPhase(f, cl, seed, w.warm, nMid, w.mid); err != nil {
		return nil, err
	}
	r.life.add(r.mid.tally)
	if nHigh > 0 {
		high, err := runPhase(f, cl, seed+1, w.warm+nMid, nHigh, w.high)
		if err != nil {
			return nil, err
		}
		r.high = &high
		r.life.add(high.tally)
	}

	for _, n := range f.nodes {
		page, err := scrape(n.addr)
		if err != nil {
			return nil, err
		}
		r.nodePages = append(r.nodePages, page)
	}
	if f.router != nil {
		if r.routerPage, err = scrape(f.router.addr); err != nil {
			return nil, err
		}
	}
	for _, p := range f.all() {
		rss, err := peakRSSMiB(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		r.rssMiB += rss
	}
	r.gate(w)
	return r, nil
}

// cpuReading is the fleet's cumulative CPU time at one moment.
type cpuReading struct {
	at           time.Time
	node, router int64 // ns
}

func readCPU(f *fleet) (cpuReading, error) {
	r := cpuReading{at: time.Now()}
	var err error
	if r.node, err = fleetCPU(f.nodes); err != nil {
		return r, err
	}
	if f.router != nil {
		r.router, err = fleetCPU([]*proc{f.router})
	}
	return r, err
}

// runPhase offers n stream elements from first at the given rate. While
// the client runs, a second goroutine reads the daemons' CPU time once a
// window, so that CPU per request — like the latency percentiles — is a
// median across windows and one burst of interference from the host
// does not decide it.
func runPhase(f *fleet, cl *client, seed int64, first, n int, rate float64) (phaseResult, error) {
	p := phaseResult{rate: rate, span: time.Duration(float64(n) / rate * float64(time.Second))}
	first0, err := readCPU(f)
	if err != nil {
		return p, err
	}
	readings := []cpuReading{first0}
	stop, stopped := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				stopped <- nil
				return
			case <-tick.C:
				r, err := readCPU(f)
				if err != nil {
					stopped <- err
					return
				}
				readings = append(readings, r)
			}
		}
	}()
	self0 := selfCPU()
	out := cl.run(first, n, schedule(seed, n, rate))
	p.clientCPU = selfCPU() - self0
	close(stop)
	if err := <-stopped; err != nil {
		return p, err
	}
	last, err := readCPU(f)
	if err != nil {
		return p, err
	}
	// A closing interval shorter than half a window joins the one before.
	if len(readings) > 1 && last.at.Sub(readings[len(readings)-1].at) < window/2 {
		readings = readings[:len(readings)-1]
	}
	readings = append(readings, last)
	p.samples, p.tally, p.wall = out.samples, out.tally, out.wall

	// Completions per interval, by completion time.
	var nodeUS, routerUS []float64
	for k := 1; k < len(readings); k++ {
		lo, hi := readings[k-1].at.Sub(out.start), readings[k].at.Sub(out.start)
		if k == 1 {
			lo = -time.Hour // the first reading precedes the phase
		}
		completed := 0
		for _, s := range out.samples {
			if end := s.due + s.lat; end > lo && end <= hi {
				completed++
			}
		}
		if completed > 0 {
			nodeUS = append(nodeUS, float64(readings[k].node-readings[k-1].node)/1e3/float64(completed))
			routerUS = append(routerUS, float64(readings[k].router-readings[k-1].router)/1e3/float64(completed))
		}
	}
	p.nodeCPU, p.routerCPU = median(nodeUS), median(routerUS)
	return p, nil
}

// nodeSum adds a family over every node's page.
func (r *servedRun) nodeSum(family string) float64 {
	var total float64
	for _, p := range r.nodePages {
		total += p.sum(family)
	}
	return total
}

// Ratios over the daemons' whole life (warm-up included): the measured
// phase of serve-hot has no miss at all, and a ratio that reads 0 cannot
// show a regression as a share of itself.
func (r *servedRun) missRatio() float64 {
	return 1 - r.nodeSum("scip_hits_total")/r.nodeSum("scip_requests_total")
}

// byteMissRatio is over the bytes that crossed the wire — bodies, which
// the origin caps at 64 KiB — as the client counted them. The shards'
// byte counters account declared sizes of up to hundreds of megabytes,
// and over the few ten thousand requests of a served run one hot giant
// object decides their ratio: it swings by a fifth between seeds.
func (r *servedRun) byteMissRatio() float64 {
	return float64(r.life.missBytes) / float64(r.life.getBytes)
}

func (r *servedRun) originFetchRatio() float64 {
	return r.nodeSum("scip_server_origin_fetches_total") / float64(r.life.gets)
}

// gate checks the run against the correctness gate: no failed request,
// the client's counts against the daemons' counters, and the achieved
// rate against the offered one.
func (r *servedRun) gate(w workload) {
	fail := func(format string, args ...any) {
		r.gateErrors = append(r.gateErrors, fmt.Sprintf(format, args...))
	}
	if r.life.failed > 0 {
		fail("%d of %d requests failed; first: %s", r.life.failed, r.life.attempted, r.life.firstErr)
	}
	// Every GET and PUT is one policy access. A hot PUT is also written
	// to the rest of the key's replica set; the router counts those
	// fan-outs together with the DELETE fan-outs (one per DELETE with
	// replication on).
	var replicaPuts float64
	if w.kind == kindRoute {
		const replicas = 2 // scip-route's default replica-set size
		replicaPuts = (r.routerPage.sum("scip_route_fanout_writes_total") - float64(r.life.deletes)) * (replicas - 1)
	}
	requests, hits := r.nodeSum("scip_requests_total"), r.nodeSum("scip_hits_total")
	if want := float64(r.life.gets+r.life.puts) + replicaPuts; requests != want {
		fail("shards counted %.0f requests, the client sent %d GETs + %d PUTs (+ %.0f replica PUTs)",
			requests, r.life.gets, r.life.puts, replicaPuts)
	}
	// The client sees every access's outcome except the replica PUTs'.
	if extra := hits - float64(r.life.hits); extra < 0 || extra > replicaPuts {
		fail("shards counted %.0f hits, the client saw %d (replica PUTs: %.0f)", hits, r.life.hits, replicaPuts)
	}
	// No origin error is injected, so fetch attempts are fills: every
	// body fill is led by one origin fetch or one peer fill, or joins one
	// in flight — and a fill happens exactly when a GET misses or a
	// policy hit finds its body displaced.
	fills := r.nodeSum("scip_server_origin_fetches_total") + r.nodeSum("scip_server_peer_fills_total") +
		r.nodeSum("scip_server_coalesced_requests_total")
	if want := float64(r.life.getMisses) + r.nodeSum("scip_server_body_refetches_total"); fills != want {
		fail("origin fetches + peer fills + coalesced waits = %.0f, MISS GETs + body refetches = %.0f", fills, want)
	}
	if errs := r.nodeSum("scip_server_origin_errors_total"); errs != 0 {
		fail("%.0f origin errors", errs)
	}
	// A backlog that grows makes every request of the closing window
	// late. The median of that window is asked, not the phase's wall time:
	// the sandbox now and then stalls for some hundred milliseconds, and a
	// stall near the end must not pass for a backlog.
	var tail []time.Duration
	for _, x := range r.mid.samples {
		if x.due >= r.mid.span-window {
			tail = append(tail, x.late)
		}
	}
	sort.Slice(tail, func(a, b int) bool { return tail[a] < tail[b] })
	if late := quantile(tail, 0.5); late > backlogLateness {
		fail("requests of the closing window went out %v late at the median (%.1f req/s achieved, %.1f offered): a growing backlog",
			late, r.mid.reqPerS(), w.mid)
	}
}
