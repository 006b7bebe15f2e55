package gen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/trace"
)

// Config parametrises a synthetic workload.
type Config struct {
	// Name labels the trace.
	Name string
	// Seed makes generation deterministic.
	Seed int64
	// Requests is the number of requests to generate.
	Requests int
	// CatalogSize is the number of objects in the rotating hot catalog.
	CatalogSize int
	// ZipfAlpha is the popularity skew of the catalog (typically 0.7–1.1).
	ZipfAlpha float64
	// OneHitFrac is the fraction of requests that address a fresh object
	// never requested again (one-hit wonders; these become ZROs).
	OneHitFrac float64
	// EchoProb is the probability that a catalog request to a cold
	// (tail) object schedules one quick re-access, which typically hits
	// and then never recurs — the P-ZRO generator.
	EchoProb float64
	// EchoDelay is the mean distance, in requests, between an access
	// and its echo.
	EchoDelay int
	// EchoTailFrac restricts echoes to the coldest fraction of the
	// catalog (by rank). 0.5 means only the colder half echoes.
	EchoTailFrac float64
	// EpochRequests is the drift period: every EpochRequests requests,
	// DriftFrac of the catalog is replaced with fresh objects.
	EpochRequests int
	// DriftFrac is the fraction of catalog slots replaced per epoch.
	DriftFrac float64
	// SizeMean is the target mean object size in bytes.
	SizeMean float64
	// SizeSigma is the log-normal shape parameter.
	SizeSigma float64
	// MinSize and MaxSize clamp object sizes (bytes).
	MinSize, MaxSize int64
	// OneHitSizeBoost multiplies the size scale of one-hit-wonder
	// objects relative to catalog objects (default 1: no correlation).
	// Real CDN traces correlate object size with zero reuse — large
	// objects are one-time downloads — which is the premise of
	// size-aware insertion policies; catalog sizes are scaled down so
	// the overall mean stays at SizeMean.
	OneHitSizeBoost float64
	// Duration is the simulated wall time covered by the trace, in
	// seconds; timestamps are spread uniformly across it.
	Duration int64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ZipfAlpha", c.ZipfAlpha}, {"OneHitFrac", c.OneHitFrac}, {"EchoProb", c.EchoProb},
		{"EchoTailFrac", c.EchoTailFrac}, {"DriftFrac", c.DriftFrac}, {"SizeMean", c.SizeMean},
		{"SizeSigma", c.SizeSigma}, {"OneHitSizeBoost", c.OneHitSizeBoost},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("gen: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case c.EchoDelay > math.MaxInt/2:
		return fmt.Errorf("gen: EchoDelay must be <= %d, got %d", math.MaxInt/2, c.EchoDelay)
	case c.Requests <= 0:
		return fmt.Errorf("gen: Requests must be > 0, got %d", c.Requests)
	case c.CatalogSize <= 0:
		return fmt.Errorf("gen: CatalogSize must be > 0, got %d", c.CatalogSize)
	case c.ZipfAlpha < 0:
		return fmt.Errorf("gen: ZipfAlpha must be >= 0, got %g", c.ZipfAlpha)
	case c.OneHitFrac < 0 || c.OneHitFrac >= 1:
		return fmt.Errorf("gen: OneHitFrac must be in [0,1), got %g", c.OneHitFrac)
	case c.EchoProb < 0 || c.EchoProb > 1:
		return fmt.Errorf("gen: EchoProb must be in [0,1], got %g", c.EchoProb)
	case c.MinSize <= 0 || c.MaxSize < c.MinSize:
		return fmt.Errorf("gen: need 0 < MinSize <= MaxSize, got %d..%d", c.MinSize, c.MaxSize)
	case c.SizeMean <= 0:
		return fmt.Errorf("gen: SizeMean must be > 0, got %g", c.SizeMean)
	case c.Duration <= 0:
		return fmt.Errorf("gen: Duration must be > 0, got %d", c.Duration)
	}
	return nil
}

// zipf is a discrete bounded Zipf(alpha) sampler over ranks [0, n) using a
// precomputed CDF and binary search. Unlike math/rand's Zipf it supports
// alpha <= 1, which real CDN popularity curves require.
type zipf struct {
	cdf []float64
	// guide narrows the search: with G = len(guide)-1, a power of two,
	// guide[k] is the first index whose CDF is >= k/G. Both int(u·G) and
	// k/G are exact in floating point, so the index for u lies in
	// [guide[k], guide[k+1]] with k = int(u·G).
	guide []int
}

func newZipf(n int, alpha float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	// cdf[n-1] is sum/sum = 1, so every k/G <= 1 finds its index.
	g := 1
	for g < n {
		g <<= 1
	}
	guide := make([]int, g+1)
	i := 0
	for k := range guide {
		for cdf[i] < float64(k)/float64(g) {
			i++
		}
		guide[k] = i
	}
	return &zipf{cdf: cdf, guide: guide}
}

// rank maps a uniform draw u in [0, 1) to a rank in [0, n); rank 0 is the
// most popular. It returns the first index whose CDF is >= u, the index
// sort.SearchFloat64s(cdf, u) returns.
func (z *zipf) rank(u float64) int {
	k := int(u * float64(len(z.guide)-1))
	lo, hi := z.guide[k], z.guide[k+1]
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if z.cdf[m] < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// object is a generated object: its size travels with its id.
type object struct {
	id   uint64
	size int64
}

// Generator produces a trace from a Config.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	zipf    *zipf
	catalog []object // rank -> object
	nextID  uint64
	sizeMu  float64
	// muCatalog and muOneHit are the log-normal location parameters of
	// the two object populations (see Config.OneHitSizeBoost).
	muCatalog, muOneHit float64
}

// NewGenerator validates cfg and prepares a deterministic generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.EchoDelay <= 0 {
		cfg.EchoDelay = 100
	}
	if cfg.EpochRequests <= 0 {
		cfg.EpochRequests = cfg.Requests + 1 // no drift
	}
	if cfg.EchoTailFrac <= 0 || cfg.EchoTailFrac > 1 {
		cfg.EchoTailFrac = 1
	}
	if cfg.OneHitSizeBoost <= 0 {
		cfg.OneHitSizeBoost = 1
	}
	g := &Generator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		zipf:   newZipf(cfg.CatalogSize, cfg.ZipfAlpha),
		sizeMu: math.Log(cfg.SizeMean) - cfg.SizeSigma*cfg.SizeSigma/2,
	}
	// Split the mean between one-hit and catalog objects so the overall
	// unique-object mean stays near SizeMean despite the boost. The
	// one-hit share of unique objects is roughly
	// OneHitFrac·Requests / (OneHitFrac·Requests + CatalogSize).
	uShare := cfg.OneHitFrac * float64(cfg.Requests)
	uShare = uShare / (uShare + float64(cfg.CatalogSize))
	denom := uShare*cfg.OneHitSizeBoost + (1 - uShare)
	catScale := 1 / denom
	g.muCatalog = g.sizeMu + math.Log(catScale)
	g.muOneHit = g.sizeMu + math.Log(catScale*cfg.OneHitSizeBoost)
	g.catalog = make([]object, cfg.CatalogSize)
	for i := range g.catalog {
		g.catalog[i] = g.newObject(g.muCatalog)
	}
	return g, nil
}

// newObject mints a fresh object with a log-normal size around mu.
func (g *Generator) newObject(mu float64) object {
	id := g.nextID
	g.nextID++
	s := int64(math.Exp(mu + g.cfg.SizeSigma*g.rng.NormFloat64()))
	if s < g.cfg.MinSize {
		s = g.cfg.MinSize
	}
	if s > g.cfg.MaxSize {
		s = g.cfg.MaxSize
	}
	return object{id: id, size: s}
}

// Generate produces the full trace.
func (g *Generator) Generate() *trace.Trace {
	cfg := g.cfg
	t := &trace.Trace{Name: cfg.Name, Requests: make([]cache.Request, 0, cfg.Requests)}
	tailStart := int(float64(cfg.CatalogSize) * (1 - cfg.EchoTailFrac))
	// Pending echoes wait in a ring of buckets: echoes[cur] holds those
	// due at request i, echoes[(cur+d) mod len] those due at i+d. An echo
	// is scheduled 1..2·EchoDelay requests ahead and dropped when due at
	// or past the end, so at most min(2·EchoDelay, Requests) + 1 due
	// indices are live at once and each has its own bucket.
	echoes := make([][]object, min(2*cfg.EchoDelay, cfg.Requests)+1)
	cur := 0
	for i := 0; i < cfg.Requests; i++ {
		// Catalog drift at epoch boundaries: replaced slots keep their
		// popularity rank but point to fresh objects, so the retired
		// objects' cached copies become dead (future ZROs).
		if i > 0 && i%cfg.EpochRequests == 0 {
			replace := int(cfg.DriftFrac * float64(cfg.CatalogSize))
			for j := 0; j < replace; j++ {
				slot := g.rng.Intn(cfg.CatalogSize)
				g.catalog[slot] = g.newObject(g.muCatalog)
			}
		}
		var o object
		if due := echoes[cur]; len(due) > 0 {
			// Deliver one scheduled echo; requeue the rest after whatever
			// is already due at the next request.
			o = due[0]
			if len(due) > 1 {
				next := ringSlot(cur, 1, len(echoes))
				echoes[next] = append(echoes[next], due[1:]...)
			}
			echoes[cur] = due[:0]
		} else if g.rng.Float64() < cfg.OneHitFrac {
			o = g.newObject(g.muOneHit)
		} else {
			rank := g.zipf.rank(g.rng.Float64())
			o = g.catalog[rank]
			if rank >= tailStart && g.rng.Float64() < cfg.EchoProb {
				delay := 1 + g.rng.Intn(2*cfg.EchoDelay)
				if delay < cfg.Requests-i {
					s := ringSlot(cur, delay, len(echoes))
					echoes[s] = append(echoes[s], o)
				}
			}
		}
		tm := int64(float64(i) / float64(cfg.Requests) * float64(cfg.Duration))
		t.Requests = append(t.Requests, cache.Request{Time: tm, Key: o.id, Size: o.size})
		cur = ringSlot(cur, 1, len(echoes))
	}
	return t
}

// Generate is a convenience wrapper: build a generator and produce the
// trace in one call.
func Generate(cfg Config) (*trace.Trace, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// ringSlot is the echo-ring bucket d requests after the one at cur, for a
// ring of n buckets and 0 <= d < n.
func ringSlot(cur, d, n int) int {
	if s := cur + d; s < n {
		return s
	}
	return cur + d - n
}
