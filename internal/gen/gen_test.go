package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/scip-cache/scip/internal/trace"
)

// fingerprint is a SHA-256 over every request's little-endian
// (Time, Key, Size).
func fingerprint(tr *trace.Trace) string {
	h := sha256.New()
	var b [24]byte
	for _, r := range tr.Requests {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Time))
		binary.LittleEndian.PutUint64(b[8:], r.Key)
		binary.LittleEndian.PutUint64(b[16:], uint64(r.Size))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateFingerprint pins the exact trace every profile, and every
// path through the generator, produces. The RNG draw order is the trace:
// a change to the generator's data structures must leave these hashes
// alone, and a change that moves them changes every figure.
func TestGenerateFingerprint(t *testing.T) {
	// base is a generic 10 000-request, 500-object workload.
	base := func(mut func(*Config)) Config {
		c := Profile("fingerprint").Config(0.01, 1)
		mut(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"CDN-T", CDNT.Config(0.001, 1), "d7c5cc26e1724d3ca80fbdc57ea8277154f1a7444a5e016f01c4c84bbb9e8efe"},
		{"CDN-W", CDNW.Config(0.001, 1), "e16fd88c2911bd75f452347a04c2d49387fa00e18b27c460ceb064104fc2e7af"},
		{"CDN-A", CDNA.Config(0.001, 1), "a97769b229d8c0af5b116c7a83afc1d05642e4cffdd4fa79fc4da622bde679dc"},
		// Every catalog request echoes one or two requests later, so
		// echoes collide and requeue onto the next request in cascades.
		{"echo-cascade", base(func(c *Config) { c.EchoProb, c.EchoTailFrac, c.EchoDelay = 1, 1, 1 }), "1517d9c43e2ef6b70e726df27f7bca17bb689dde9863d2d8c521f2f5c032deaf"},
		// Every echo is due past the end of the trace.
		{"echo-past-end", base(func(c *Config) { c.EchoDelay = 1 << 30 }), "a4dffccdc12fc7e642abe178b06e302c1768ed7817a4afc05596c90ebb632134"},
		{"alpha-0", base(func(c *Config) { c.ZipfAlpha = 0 }), "c37fb3cb817c39077751160a5082b299d438d8f7d609d33ac8381a3f23d8c0e3"},
		{"alpha-3", base(func(c *Config) { c.ZipfAlpha = 3 }), "156dc06dc61c948c00b18f6bf0c40d3eeb03a4ad7520d1d91d2d4e0c81c311e7"},
		{"catalog-1", base(func(c *Config) { c.CatalogSize = 1 }), "f444a8c8d4fa7a2e836c15f2120d703ffbbcc55f2f21f73b94960429b6995090"},
		{"drift-1", base(func(c *Config) { c.DriftFrac = 1 }), "296453fe679529560a45ae0394250c5c78591197aa1c6fb9bd9548e27131c692"},
	}
	for _, tc := range cases {
		tr, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fingerprint(tr); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := CDNT.Config(0.001, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Requests = 0 },
		func(c *Config) { c.CatalogSize = 0 },
		func(c *Config) { c.ZipfAlpha = -1 },
		func(c *Config) { c.OneHitFrac = 1.5 },
		func(c *Config) { c.EchoProb = -0.1 },
		func(c *Config) { c.MinSize = 0 },
		func(c *Config) { c.MaxSize = c.MinSize - 1 },
		func(c *Config) { c.SizeMean = 0 },
		func(c *Config) { c.Duration = 0 },
		// 2·EchoDelay overflows int and rng.Intn panics.
		func(c *Config) { c.EchoDelay = math.MaxInt/2 + 1 },
	}
	// A NaN ZipfAlpha indexes past the catalog; a NaN size parameter gives
	// every object MinSize. No float field may be NaN or infinite.
	floats := []func(*Config) *float64{
		func(c *Config) *float64 { return &c.ZipfAlpha },
		func(c *Config) *float64 { return &c.OneHitFrac },
		func(c *Config) *float64 { return &c.EchoProb },
		func(c *Config) *float64 { return &c.EchoTailFrac },
		func(c *Config) *float64 { return &c.DriftFrac },
		func(c *Config) *float64 { return &c.SizeMean },
		func(c *Config) *float64 { return &c.SizeSigma },
		func(c *Config) *float64 { return &c.OneHitSizeBoost },
	}
	for _, field := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad = append(bad, func(c *Config) { *field(c) = v })
		}
	}
	for i, mut := range bad {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := CDNT.Config(0.0005, 42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("lengths differ across identical seeds")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %v vs %v", i, a.Requests[i], b.Requests[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(CDNT.Config(0.0005, 1))
	b, _ := Generate(CDNT.Config(0.0005, 2))
	same := 0
	for i := range a.Requests {
		if a.Requests[i].Key == b.Requests[i].Key {
			same++
		}
	}
	if same == len(a.Requests) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateBasicInvariants(t *testing.T) {
	for _, p := range Profiles {
		cfg := p.Config(0.0008, 7)
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Requests) != cfg.Requests {
			t.Fatalf("%s: got %d requests, want %d", p, len(tr.Requests), cfg.Requests)
		}
		var prev int64
		sizes := map[uint64]int64{}
		for i, r := range tr.Requests {
			if r.Time < prev {
				t.Fatalf("%s: non-monotonic time at %d", p, i)
			}
			prev = r.Time
			if r.Size < cfg.MinSize || r.Size > cfg.MaxSize {
				t.Fatalf("%s: size %d outside [%d,%d]", p, r.Size, cfg.MinSize, cfg.MaxSize)
			}
			if s, ok := sizes[r.Key]; ok && s != r.Size {
				t.Fatalf("%s: object %d changed size %d -> %d", p, r.Key, s, r.Size)
			}
			sizes[r.Key] = r.Size
		}
	}
}

// TestProfileUniqueRatios checks that the unique/total object ratios of the
// generated workloads land near the paper's Table-1 ratios, which drive the
// ZRO structure of every experiment.
func TestProfileUniqueRatios(t *testing.T) {
	want := map[Profile]float64{}
	for _, p := range Profiles {
		ps := p.PaperStats()
		want[p] = float64(ps.UniqueObjects) / float64(ps.TotalRequests)
	}
	for _, p := range Profiles {
		tr, err := Generate(p.Config(0.002, 3))
		if err != nil {
			t.Fatal(err)
		}
		s := tr.ComputeStats()
		got := float64(s.UniqueObjects) / float64(s.TotalRequests)
		if math.Abs(got-want[p]) > 0.35*want[p]+0.02 {
			t.Errorf("%s: unique/total = %.3f, paper %.3f", p, got, want[p])
		}
	}
}

// TestProfileMeanSizes checks the object-level mean sizes are within a
// factor ~2 of the calibration targets (log-normal clamping shifts them).
func TestProfileMeanSizes(t *testing.T) {
	for _, p := range Profiles {
		cfg := p.Config(0.002, 3)
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := tr.ComputeStats()
		ratio := s.MeanObjectSize / cfg.SizeMean
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: mean size %.0f vs target %.0f (ratio %.2f)", p, s.MeanObjectSize, cfg.SizeMean, ratio)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(1000, 1.0)
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.rank(rng.Float64())]++
	}
	if counts[0] <= counts[100] || counts[100] <= counts[900] {
		t.Fatalf("Zipf not skewed: c0=%d c100=%d c900=%d", counts[0], counts[100], counts[900])
	}
	// Rank 0 should hold roughly 1/H(1000) of the mass (~13% for alpha=1).
	frac := float64(counts[0]) / 200000
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("rank-0 mass = %.3f, want ~0.13", frac)
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	z := newZipf(100, 0)
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.rank(rng.Float64())]++
	}
	for r, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("alpha=0 rank %d count %d not ~1000", r, c)
		}
	}
}

// TestZipfRankExact checks the guide-table search against the reference
// sort.SearchFloat64s: the rank drawn for a u must not move, or every
// trace moves with it. Besides random draws it probes
// every guide boundary k/G with its floating-point neighbours, every CDF
// value, and both ends of [0, 1).
func TestZipfRankExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 64, 1000, 125_000} {
		for _, alpha := range []float64{0, 0.7, 0.9, 1.1, 3} {
			z := newZipf(n, alpha)
			g := len(z.guide) - 1
			us := []float64{0, math.Nextafter(1, 0)}
			for k := 0; k < g; k++ {
				b := float64(k) / float64(g)
				us = append(us, b, math.Nextafter(b, 0), math.Nextafter(b, 1))
			}
			us = append(us, z.cdf...)
			for i := 0; i < 100_000; i++ {
				us = append(us, rng.Float64())
			}
			for _, u := range us {
				if u < 0 || u >= 1 {
					continue
				}
				if got, want := z.rank(u), sort.SearchFloat64s(z.cdf, u); got != want {
					t.Fatalf("n=%d alpha=%g u=%v: rank %d, sort.SearchFloat64s %d", n, alpha, u, got, want)
				}
			}
		}
	}
}

// FuzzGenerate generates from arbitrary configurations: whatever Validate
// accepts must generate without panicking, give exactly Requests
// requests, keep every size in [MinSize, MaxSize] and constant per key,
// and never let time run backwards.
func FuzzGenerate(f *testing.F) {
	add := func(c Config) {
		f.Add(c.Seed, c.Requests, c.CatalogSize, c.ZipfAlpha, c.OneHitFrac, c.EchoProb, c.EchoDelay,
			c.EchoTailFrac, c.EpochRequests, c.DriftFrac, c.SizeMean, c.SizeSigma, c.MinSize, c.MaxSize,
			c.OneHitSizeBoost, c.Duration)
	}
	for _, p := range Profiles {
		add(p.Config(0.00004, 1))
	}
	nanAlpha := Profile("x").Config(0.01, 1)
	nanAlpha.ZipfAlpha = math.NaN()
	add(nanAlpha)
	cascade := Profile("x").Config(0.001, 2)
	cascade.EchoProb, cascade.EchoTailFrac, cascade.EchoDelay = 1, 1, 1
	add(cascade)
	pastEnd := Profile("x").Config(0.001, 3)
	pastEnd.EchoDelay = math.MaxInt / 2
	add(pastEnd)
	f.Fuzz(func(t *testing.T, seed int64, requests, catalog int, alpha, oneHit, echoProb float64, echoDelay int,
		tailFrac float64, epoch int, drift, sizeMean, sigma float64, minSize, maxSize int64,
		boost float64, duration int64) {
		cfg := Config{
			Seed: seed, Requests: min(requests, 4096), CatalogSize: min(catalog, 4096),
			ZipfAlpha: alpha, OneHitFrac: oneHit, EchoProb: echoProb, EchoDelay: echoDelay,
			EchoTailFrac: tailFrac, EpochRequests: epoch, DriftFrac: drift,
			SizeMean: sizeMean, SizeSigma: sigma, MinSize: minSize, MaxSize: maxSize,
			OneHitSizeBoost: boost, Duration: duration,
		}
		if cfg.Validate() != nil {
			return
		}
		// DriftFrac may exceed 1, replacing the catalog many times over
		// each epoch; bound that work so one input cannot stall the run.
		if epoch > 0 && drift*float64(cfg.CatalogSize)*float64(cfg.Requests/epoch) > 1<<22 {
			return
		}
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Validate accepted %+v, Generate failed: %v", cfg, err)
		}
		if len(tr.Requests) != cfg.Requests {
			t.Fatalf("got %d requests, want %d", len(tr.Requests), cfg.Requests)
		}
		sizes := map[uint64]int64{}
		var prev int64
		for i, r := range tr.Requests {
			if r.Time < prev {
				t.Fatalf("time runs backwards at %d: %d after %d", i, r.Time, prev)
			}
			prev = r.Time
			if r.Size < cfg.MinSize || r.Size > cfg.MaxSize {
				t.Fatalf("request %d: size %d outside [%d, %d]", i, r.Size, cfg.MinSize, cfg.MaxSize)
			}
			if s, ok := sizes[r.Key]; ok && s != r.Size {
				t.Fatalf("object %d changed size %d -> %d", r.Key, s, r.Size)
			}
			sizes[r.Key] = r.Size
		}
	})
}

func TestCacheBytesScales(t *testing.T) {
	paperBytes := int64(64 << 30)
	got := CDNT.CacheBytes(paperBytes, 0.02)
	want := int64(float64(paperBytes) * 0.02)
	if got != want {
		t.Fatalf("CacheBytes=%d want %d", got, want)
	}
}

func TestPaperStatsCoverProfiles(t *testing.T) {
	for _, p := range Profiles {
		s := p.PaperStats()
		if s.TotalRequests == 0 || s.WorkingSetSize == 0 {
			t.Fatalf("%s: empty paper stats", p)
		}
	}
	if Profile("other").PaperStats().TotalRequests != 0 {
		t.Fatal("unknown profile should have empty paper stats")
	}
}

func TestUnknownProfileConfigUsable(t *testing.T) {
	cfg := Profile("tiny").Config(0.001, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("generic profile invalid: %v", err)
	}
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOneHitSizeBoostCorrelation verifies the size↔zero-reuse correlation:
// with a boost, objects seen exactly once must be larger on average than
// reused objects, while the overall mean stays near the target.
func TestOneHitSizeBoostCorrelation(t *testing.T) {
	cfg := Config{
		Name: "boost", Seed: 9,
		Requests:    120_000,
		CatalogSize: 2_000,
		ZipfAlpha:   0.9,
		OneHitFrac:  0.3,
		SizeMean:    10_000, SizeSigma: 1.0, OneHitSizeBoost: 4,
		MinSize: 16, MaxSize: 10 << 20,
		Duration: 3600,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	sizes := map[uint64]int64{}
	for _, r := range tr.Requests {
		counts[r.Key]++
		sizes[r.Key] = r.Size
	}
	var oneSum, oneN, multiSum, multiN float64
	for k, c := range counts {
		if c == 1 {
			oneSum += float64(sizes[k])
			oneN++
		} else {
			multiSum += float64(sizes[k])
			multiN++
		}
	}
	oneMean := oneSum / oneN
	multiMean := multiSum / multiN
	if oneMean < 2*multiMean {
		t.Fatalf("one-hit mean %.0f not clearly above reused mean %.0f", oneMean, multiMean)
	}
	overall := tr.ComputeStats().MeanObjectSize
	if overall < cfg.SizeMean*0.4 || overall > cfg.SizeMean*2.5 {
		t.Fatalf("overall mean %.0f drifted from target %.0f", overall, cfg.SizeMean)
	}
}

// TestBoostDisabledIsNeutral: with boost 1 the two populations share the
// same size distribution.
func TestBoostDisabledIsNeutral(t *testing.T) {
	cfg := Config{
		Name: "noboost", Seed: 9,
		Requests:    120_000,
		CatalogSize: 2_000,
		ZipfAlpha:   0.9,
		OneHitFrac:  0.3,
		SizeMean:    10_000, SizeSigma: 1.0,
		MinSize: 16, MaxSize: 10 << 20,
		Duration: 3600,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	sizes := map[uint64]int64{}
	for _, r := range tr.Requests {
		counts[r.Key]++
		sizes[r.Key] = r.Size
	}
	var oneSum, oneN, multiSum, multiN float64
	for k, c := range counts {
		if c == 1 {
			oneSum += float64(sizes[k])
			oneN++
		} else {
			multiSum += float64(sizes[k])
			multiN++
		}
	}
	ratio := (oneSum / oneN) / (multiSum / multiN)
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("boost=1 populations differ: ratio %.2f", ratio)
	}
}
