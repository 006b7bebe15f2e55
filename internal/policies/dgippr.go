package policies

import (
	"math/rand"

	"github.com/scip-cache/scip/internal/cache"
)

// promoMode is a DGIPPR promotion gene.
type promoMode int

const (
	promoStay  promoMode = iota // leave the hit object in place
	promoUp1                    // one step toward MRU
	promoUp4                    // four steps toward MRU
	promoFront                  // move to the global MRU position
)

// chromosome is one insertion/promotion parameter vector.
type chromosome struct {
	insertSeg int
	promote   promoMode
}

// DGIPPR is genetic insertion and promotion for pseudo-LRU replacement
// (Jiménez). The original evolves insertion/promotion position vectors
// for a tree-PLRU last-level cache offline; this adaptation evolves
// (insertion segment, promotion step) chromosomes online: each chromosome
// drives the cache for one evaluation epoch, its fitness is the epoch hit
// count, and after every generation the fitter half survives and breeds
// the other half by crossover and mutation.
type DGIPPR struct {
	// Epoch is the per-chromosome evaluation window in requests
	// (default 4096).
	Epoch int
	// Population is the chromosome count (default 8).
	Population int

	name string
	cap  int64
	q    *SegQueue
	rng  *rand.Rand

	pop     []chromosome
	fitness []int
	current int
	reqs    int
	hits    int
}

var _ cache.Policy = (*DGIPPR)(nil)

// NewDGIPPR returns a DGIPPR cache of capBytes capacity.
func NewDGIPPR(capBytes int64, seed int64) *DGIPPR {
	g := &DGIPPR{
		Epoch:      4096,
		Population: 8,
		name:       "DGIPPR",
		cap:        capBytes,
		q:          NewSegQueue(),
		rng:        rand.New(rand.NewSource(seed + 503)),
	}
	for i := 0; i < g.Population; i++ {
		g.pop = append(g.pop, chromosome{
			insertSeg: g.rng.Intn(NumSegments),
			promote:   promoMode(g.rng.Intn(4)),
		})
	}
	g.fitness = make([]int, g.Population)
	return g
}

// Name implements cache.Policy.
func (g *DGIPPR) Name() string { return g.name }

// Capacity implements cache.Policy.
func (g *DGIPPR) Capacity() int64 { return g.cap }

// Used implements cache.Policy.
func (g *DGIPPR) Used() int64 { return g.q.Bytes() }

// Chromosome exposes the active parameter vector for tests.
func (g *DGIPPR) Chromosome() (insertSeg int, promote int) {
	c := g.pop[g.current]
	return c.insertSeg, int(c.promote)
}

// Access implements cache.Policy.
func (g *DGIPPR) Access(req cache.Request) bool {
	g.reqs++
	if g.reqs%g.Epoch == 0 {
		g.advance()
	}
	c := g.pop[g.current]
	if h := g.q.Get(req.Key); h != cache.None {
		e := g.q.At(h)
		e.Hits++
		g.hits++
		switch c.promote {
		case promoUp1:
			g.q.StepUp(h)
		case promoUp4:
			for i := 0; i < 4; i++ {
				g.q.StepUp(h)
			}
		case promoFront:
			g.q.MoveToFront(h)
		}
		return true
	}
	if req.Size > g.cap || req.Size <= 0 {
		return false
	}
	for g.q.Bytes()+req.Size > g.cap {
		g.q.EvictBack()
	}
	g.q.InsertAt(req.Key, req.Size, c.insertSeg)
	return false
}

// advance records the finished chromosome's fitness and moves to the
// next; at generation end it breeds a new population.
func (g *DGIPPR) advance() {
	g.fitness[g.current] = g.hits
	g.hits = 0
	g.current++
	if g.current < g.Population {
		return
	}
	g.current = 0
	g.breed()
}

func (g *DGIPPR) breed() {
	// Rank by fitness (selection): simple O(n²) ranking, n = 8.
	order := make([]int, g.Population)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if g.fitness[order[j]] > g.fitness[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	half := g.Population / 2
	next := make([]chromosome, 0, g.Population)
	for i := 0; i < half; i++ {
		next = append(next, g.pop[order[i]])
	}
	for len(next) < g.Population {
		a := next[g.rng.Intn(half)]
		b := next[g.rng.Intn(half)]
		child := chromosome{insertSeg: a.insertSeg, promote: b.promote}
		if g.rng.Float64() < 0.25 { // mutation
			child.insertSeg = g.rng.Intn(NumSegments)
		}
		if g.rng.Float64() < 0.25 {
			child.promote = promoMode(g.rng.Intn(4))
		}
		next = append(next, child)
	}
	g.pop = next
}
