package server

import "sync"

// flightResult is what one fill-chain fetch produced. peer marks a body
// that came from a fleet peer instead of the origin (surfaced as the
// X-Fill response header and the peer_fills_total counter).
type flightResult struct {
	body []byte
	size int64
	err  error
	peer bool
}

// flight is one in-progress fetch; done is closed when res is final.
type flight struct {
	done chan struct{}
	res  flightResult
}

// flightGroup coalesces concurrent fetches of the same key: the first
// caller (the leader) runs fn, later callers block until the leader
// finishes and share its result. Unlike runner.Memo the entry is
// forgotten as soon as the flight lands — this is pure request
// coalescing, not memoisation: the body store is the cache, the flight
// group only collapses a thundering herd of concurrent misses into one
// origin fetch. The server keeps one group per shard so coalescing
// bookkeeping never contends across shards.
type flightGroup struct {
	mu sync.Mutex
	m  map[uint64]*flight // guarded by mu
}

// do runs fn for key, sharing the execution with concurrent callers.
// shared reports whether this caller joined an existing flight instead
// of running fn itself.
func (g *flightGroup) do(key uint64, fn func() flightResult) (res flightResult, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[uint64]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.res, true
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.res = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.res, false
}
