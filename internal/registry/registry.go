package registry

import (
	"fmt"
	"strings"

	"github.com/scip-cache/scip/internal/belady"
	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/lrb"
	"github.com/scip-cache/scip/internal/policies"
	"github.com/scip-cache/scip/internal/replacement"
	"github.com/scip-cache/scip/internal/trace"
)

// Env carries the per-instance construction inputs.
type Env struct {
	// Capacity is the cache's byte budget.
	Capacity int64
	// Seed seeds the policy's PRNG; deterministic policies ignore it.
	Seed int64
	// Interval is the learning interval in requests of SCIP and SCI
	// (0 = the policy default); other policies ignore it.
	Interval int
}

// Constructor builds a fresh policy instance.
type Constructor func(Env) cache.Policy

// entry is one table row. oracle marks Belady, whose constructor needs
// the trace it will replay and is bound to it by Lookup.
type entry struct {
	name    string
	aliases []string
	build   Constructor
	oracle  bool
}

var table = []entry{
	{name: "SCIP", build: func(e Env) cache.Policy {
		return core.NewCache(e.Capacity, core.WithSeed(e.Seed), core.WithInterval(e.Interval))
	}},
	{name: "SCI", build: func(e Env) cache.Policy {
		return core.NewSCICache(e.Capacity, core.WithSeed(e.Seed), core.WithInterval(e.Interval))
	}},
	{name: "LRU", build: func(e Env) cache.Policy { return cache.NewLRU(e.Capacity) }},
	{name: "LIP", build: func(e Env) cache.Policy { return policies.NewCache("LIP", e.Capacity, policies.LIP{}) }},
	{name: "BIP", build: func(e Env) cache.Policy { return policies.NewCache("BIP", e.Capacity, policies.NewBIP(e.Seed)) }},
	{name: "DIP", build: func(e Env) cache.Policy {
		return policies.NewCache("DIP", e.Capacity, policies.NewDIP(e.Capacity, e.Seed))
	}},
	{name: "PIPP", build: func(e Env) cache.Policy { return policies.NewPIPP(e.Capacity, e.Seed) }},
	{name: "DTA", build: func(e Env) cache.Policy { return policies.NewCache("DTA", e.Capacity, policies.NewDTA()) }},
	{name: "SHiP", build: func(e Env) cache.Policy { return policies.NewCache("SHiP", e.Capacity, policies.NewSHiP()) }},
	{name: "DGIPPR", build: func(e Env) cache.Policy { return policies.NewDGIPPR(e.Capacity, e.Seed) }},
	{name: "DAAIP", build: func(e Env) cache.Policy {
		return policies.NewCache("DAAIP", e.Capacity, policies.NewDAAIP(e.Seed))
	}},
	{name: "ASC-IP", aliases: []string{"ASCIP"}, build: func(e Env) cache.Policy {
		return policies.NewCache("ASC-IP", e.Capacity, policies.NewASCIP(e.Capacity))
	}},
	{name: "LRU-K", aliases: []string{"LRUK"}, build: func(e Env) cache.Policy { return replacement.NewLRUK(e.Capacity, e.Seed) }},
	{name: "S4LRU", build: func(e Env) cache.Policy { return replacement.NewS4LRU(e.Capacity) }},
	{name: "SS-LRU", aliases: []string{"SSLRU"}, build: func(e Env) cache.Policy { return replacement.NewSSLRU(e.Capacity) }},
	{name: "GDSF", build: func(e Env) cache.Policy { return replacement.NewGDSF(e.Capacity) }},
	{name: "LHD", build: func(e Env) cache.Policy { return replacement.NewLHD(e.Capacity, e.Seed) }},
	{name: "CACHEUS", build: func(e Env) cache.Policy { return replacement.NewCACHEUS(e.Capacity, e.Seed) }},
	{name: "GL-Cache", aliases: []string{"GLCACHE"}, build: func(e Env) cache.Policy { return replacement.NewGLCache(e.Capacity) }},
	{name: "LRB", build: func(e Env) cache.Policy { return lrb.New(e.Capacity, lrb.WithSeed(e.Seed)) }},
	{name: "Belady", oracle: true},
}

// Names returns the canonical policy names in table order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// resolve returns the table row a policy name or one of its aliases
// names, case-insensitively.
func resolve(name string) (entry, error) {
	for _, e := range table {
		if strings.EqualFold(name, e.name) {
			return e, nil
		}
		for _, a := range e.aliases {
			if strings.EqualFold(name, a) {
				return e, nil
			}
		}
	}
	return entry{}, fmt.Errorf("unknown policy %q (want one of %s)",
		name, strings.Join(Names(), ", "))
}

// Canonical returns the table's canonical display name for a policy
// name or alias.
func Canonical(name string) (string, error) {
	e, err := resolve(name)
	return e.name, err
}

// Lookup resolves a policy name to its constructor. tr is
// the trace the policy will replay; only Belady reads it, and Lookup
// fails for Belady when tr is nil.
func Lookup(name string, tr *trace.Trace) (Constructor, error) {
	e, err := resolve(name)
	switch {
	case err != nil:
		return nil, err
	case e.oracle && tr == nil:
		return nil, fmt.Errorf("policy %s is an offline oracle and needs a trace to replay", e.name)
	case e.oracle:
		return func(env Env) cache.Policy { return belady.New(tr, env.Capacity) }, nil
	}
	return e.build, nil
}
