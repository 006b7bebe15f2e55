package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries a span's id to the next process boundary, where the
// receiving wrapper adopts it as the parent of its own span.
const spanHeader = "X-Bench-Span"

// Span names, one per wrapped boundary. The tree of one routed request:
//
//	client.request ⊃ client.queue + cluster.route ⊃ cluster.upstream ⊃
//	server.handle ⊃ { server.peer_fetch ⊃ server.peer_serve, server.origin_fetch }
//
// A serve-* workload has no router, so server.handle hangs directly off
// client.request.
const (
	spanClientRequest = "client.request" // due → last body byte
	spanClientQueue   = "client.queue"   // due → request written
	spanClusterRoute  = "cluster.route"  // Router.Handler()
	spanUpstream      = "cluster.upstream"
	spanServerHandle  = "server.handle" // Server.Handler(), /obj
	spanPeerFetch     = "server.peer_fetch"
	spanPeerServe     = "server.peer_serve" // Server.Handler(), /peer
	spanOriginFetch   = "server.origin_fetch"
)

// span is one timed call across a layer boundary.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // the request's t value; -1 when the boundary cannot see it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix time
	End    int64  `json:"end_ns"`
	Failed bool   `json:"failed,omitempty"` // the wrapped call returned an error (a peer miss)
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(id, parent uint64, req int64, name string, start, end time.Time) {
	r.addSpan(span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
}

func (r *recorder) addSpan(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span (indexed like spans), its duration minus
// the part of its interval its children cover. Children are clipped to
// the parent's interval and overlapping children are counted once, so
// the self times of a tree sum to its root's duration when siblings do
// not overlap, and never fall below zero.
func selfTimes(spans []span) []int64 {
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// budgetRow is one line of the per-workload budget table.
type budgetRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	SelfUS  float64 `json:"self_us_per_request"` // total self time ÷ traced client requests
	MeanUS  float64 `json:"mean_span_us"`        // mean duration of the span itself
	SharePC float64 `json:"share_pct"`           // of the client-observed time
}

// budget is the traced run's decomposition of client-observed time.
type budget struct {
	Requests int         `json:"requests"`
	ClientUS float64     `json:"client_request_us"` // mean client.request duration
	SumPC    float64     `json:"self_sum_pct"`      // Σ self ÷ Σ client.request; 100 when the tree is complete
	Rows     []budgetRow `json:"rows"`
}

var budgetOrder = []string{spanClientRequest, spanClientQueue, spanClusterRoute, spanUpstream,
	spanServerHandle, spanPeerFetch, spanPeerServe, spanOriginFetch}

// buildBudget sums self times by span name over every tree rooted in a
// client.request span. Spans outside such a tree (a warm-up request, a
// health probe) are left out.
func buildBudget(spans []span) budget {
	self := selfTimes(spans)
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	rooted := make([]int8, len(spans)) // 0 unknown, 1 yes, -1 no
	var isRooted func(i int) bool
	isRooted = func(i int) bool {
		if rooted[i] != 0 {
			return rooted[i] > 0
		}
		s := spans[i]
		ok := false
		if s.Parent == 0 {
			ok = s.Name == spanClientRequest
		} else if p, found := index[s.Parent]; found {
			ok = isRooted(p)
		}
		rooted[i] = -1
		if ok {
			rooted[i] = 1
		}
		return ok
	}
	type acc struct {
		count     int
		self, dur int64
	}
	accs := make(map[string]*acc)
	var total, clientDur int64
	var requests int
	for i, s := range spans {
		if !isRooted(i) {
			continue
		}
		a := accs[s.Name]
		if a == nil {
			a = &acc{}
			accs[s.Name] = a
		}
		a.count++
		a.self += self[i]
		a.dur += s.End - s.Start
		total += self[i]
		if s.Name == spanClientRequest {
			requests++
			clientDur += s.End - s.Start
		}
	}
	b := budget{Requests: requests}
	if requests == 0 {
		return b
	}
	b.ClientUS = float64(clientDur) / float64(requests) / 1e3
	b.SumPC = 100 * float64(total) / float64(clientDur)
	for _, name := range budgetOrder {
		a := accs[name]
		if a == nil {
			continue
		}
		b.Rows = append(b.Rows, budgetRow{
			Name:    name,
			Count:   a.count,
			SelfUS:  float64(a.self) / float64(requests) / 1e3,
			MeanUS:  float64(a.dur) / float64(a.count) / 1e3,
			SharePC: 100 * float64(a.self) / float64(clientDur),
		})
	}
	return b
}

func (b budget) row(name string) budgetRow {
	for _, r := range b.Rows {
		if r.Name == name {
			return r
		}
	}
	return budgetRow{Name: name}
}

// print renders the budget table: self time is a span's duration minus
// what its children cover, so the self column sums to client.request.
func (b budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "budget %s: %d traced requests, client.request mean %.1f us, self times sum to %.1f%% of it\n",
		workload, b.Requests, b.ClientUS, b.SumPC)
	fmt.Fprintf(w, "  %-22s %8s %14s %12s %8s\n", "span", "count", "self us/req", "mean us", "share")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-22s %8d %14.2f %12.2f %7.1f%%\n", r.Name, r.Count, r.SelfUS, r.MeanUS, r.SharePC)
	}
}

// meanDurUS returns the mean duration in microseconds of the spans that
// satisfy keep.
func meanDurUS(spans []span, keep func(span) bool) float64 {
	var n, sum int64
	for _, s := range spans {
		if keep(s) {
			n++
			sum += s.End - s.Start
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}
