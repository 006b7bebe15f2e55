package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
)

// recorder forwards InsertionPolicy and ResidencyObserver to a SCIP and
// logs what the cache asked of it during the current access: the
// positions it chose and the victims it was told about. Like a
// decorator that forwards only those two interfaces, it hides SCIP's
// StoreSharer side, so the SCIP behind it keeps private ghost lists.
type recorder struct {
	s   *SCIP
	log []string
}

func (r *recorder) Name() string { return r.s.Name() }

func (r *recorder) ChooseInsert(req cache.Request) cache.Position {
	pos := r.s.ChooseInsert(req)
	r.log = append(r.log, "insert "+pos.String())
	return pos
}

func (r *recorder) ChoosePromote(req cache.Request) cache.Position {
	pos := r.s.ChoosePromote(req)
	r.log = append(r.log, "promote "+pos.String())
	return pos
}

func (r *recorder) OnEvict(ev cache.EvictInfo) {
	r.log = append(r.log, fmt.Sprintf("evict %d size %d mru %v hit %v res %d",
		ev.Key, ev.Size, ev.InsertedMRU, ev.EverHit, ev.Residency))
	r.s.OnEvict(ev)
}

func (r *recorder) OnAccess(req cache.Request, hit bool) { r.s.OnAccess(req, hit) }

func (r *recorder) OnResidentHit(req cache.Request, insertedMRU bool, res cache.Residency, hits int) {
	r.s.OnResidentHit(req, insertedMRU, res, hits)
}

// sharingRecorder is a recorder that also forwards the store offer, so
// the SCIP behind it builds H_m and H_l in the cache's arena and index.
type sharingRecorder struct {
	*recorder
	bound bool
}

func (r *sharingRecorder) ShareStore(a *cache.Arena, x *cache.Index) {
	r.bound = a != nil
	r.s.ShareStore(a, x)
}

// randomSizedTrace draws n requests over a few hundred keys with
// lognormal sizes, a few of them larger than half of capBytes (victims
// no ghost list can take) or than capBytes itself (bypassed), and one
// request in twenty with a fresh size for its key.
func randomSizedTrace(n int, capBytes int64, seed int64) []cache.Request {
	rng := rand.New(rand.NewSource(seed))
	const keys = 400
	sizes := make([]int64, keys)
	for k := range sizes {
		switch {
		case k%50 == 0:
			sizes[k] = capBytes/2 + 1 + rng.Int63n(capBytes/2)
		case k%97 == 0:
			sizes[k] = capBytes + 1
		default:
			sizes[k] = 1 + int64(rng.ExpFloat64()*float64(capBytes)/60)
		}
	}
	tr := make([]cache.Request, n)
	for i := range tr {
		k := int(rng.ExpFloat64() * keys / 4)
		if k >= keys {
			k = rng.Intn(keys)
		}
		size := sizes[k]
		if rng.Intn(20) == 0 {
			size = 1 + rng.Int63n(capBytes/4)
		}
		tr[i] = cache.Request{Time: int64(i), Key: uint64(k), Size: size}
	}
	return tr
}

// TestSharedStoreDecidesLikePrivateLists is the fence on store sharing:
// SCIP and SCI with H_m/H_l in the cache's own arena and index must make
// exactly the decisions they make with private lists behind a decorator
// that hides the store offer. At every access it compares the hit, the
// insert and promote positions, the victims and both lists' Bytes and
// Len; at the end, every ω and λ.
func TestSharedStoreDecidesLikePrivateLists(t *testing.T) {
	type replay struct {
		name     string
		trace    []cache.Request
		capBytes int64
	}
	const randomCap = 400_000
	replays := []replay{{"random", randomSizedTrace(60_000, randomCap, 7), randomCap}}
	for _, p := range gen.Profiles {
		tr, err := gen.Generate(p.Config(0.001, 3))
		if err != nil {
			t.Fatal(err)
		}
		replays = append(replays, replay{string(p), tr.Requests, p.CacheBytes(64<<30, 0.001)})
	}
	for _, rp := range replays {
		for _, sci := range []bool{false, true} {
			name := rp.name + "/SCIP"
			newPolicy := New
			if sci {
				name, newPolicy = rp.name+"/SCI", NewSCI
			}
			t.Run(name, func(t *testing.T) {
				opts := []Option{WithSeed(5), WithInterval(2000)}
				shared := &sharingRecorder{recorder: &recorder{s: newPolicy(rp.capBytes, opts...)}}
				private := &recorder{s: newPolicy(rp.capBytes, opts...)}
				cs := cache.NewQueueCache("shared", rp.capBytes, shared)
				cp := cache.NewQueueCache("private", rp.capBytes, private)
				if !shared.bound {
					t.Fatal("the cache did not offer its store")
				}
				ghosts := 0
				for i, r := range rp.trace {
					shared.log, private.log = shared.log[:0], private.log[:0]
					hs, hp := cs.Access(r), cp.Access(r)
					if hs != hp {
						t.Fatalf("access %d (key %d): hit %v with a shared store, %v without", i, r.Key, hs, hp)
					}
					if !reflect.DeepEqual(shared.log, private.log) {
						t.Fatalf("access %d (key %d): shared store did %q, private lists %q", i, r.Key, shared.log, private.log)
					}
					a, b := shared.s, private.s
					if a.hm.Bytes() != b.hm.Bytes() || a.hm.Len() != b.hm.Len() ||
						a.hl.Bytes() != b.hl.Bytes() || a.hl.Len() != b.hl.Len() {
						t.Fatalf("access %d: H_m %d B/%d, H_l %d B/%d shared; H_m %d B/%d, H_l %d B/%d private", i,
							a.hm.Bytes(), a.hm.Len(), a.hl.Bytes(), a.hl.Len(),
							b.hm.Bytes(), b.hm.Len(), b.hl.Bytes(), b.hl.Len())
					}
					ghosts += a.hm.Len() + a.hl.Len()
				}
				if ghosts == 0 {
					t.Fatal("no ghost was ever recorded")
				}
				a, b := shared.s, private.s
				got := []float64{a.MRUWeight(), a.proW.global.Weight(0), a.Lambda()}
				want := []float64{b.MRUWeight(), b.proW.global.Weight(0), b.Lambda()}
				for c := 0; c < numSizeClasses; c++ {
					got = append(got, a.insW.pick(1<<(c+5)).Weight(0), a.proW.pick(1<<(c+5)).Weight(0))
					want = append(want, b.insW.pick(1<<(c+5)).Weight(0), b.proW.pick(1<<(c+5)).Weight(0))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("final ω/λ %v with a shared store, %v without", got, want)
				}
			})
		}
	}
}
