package scorer

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/scip-cache/scip/internal/cache"
)

// SpecPrefix marks a policy string as a scorer-pipeline spec.
const SpecPrefix = "scorer:"

// IsSpec reports whether the policy string is a scorer spec
// (case-insensitive prefix match, so CLIs that upper-case policy names
// can test before normalising).
func IsSpec(policy string) bool {
	return len(policy) >= len(SpecPrefix) && strings.EqualFold(policy[:len(SpecPrefix)], SpecPrefix)
}

// Spec is a parsed "scorer:" policy spec. Seed, capacity and the
// interval override are runtime inputs to New, not spec fields.
type Spec struct {
	cfg    Config
	filter bool    // mode=filter; the default is placement
	theta  float64 // filter mode's threshold; -1 is the score >= u rule
	raw    string  // the spec text, the display name when cfg.Name is empty
}

// ParseSpec parses a "scorer:" policy spec. The grammar is a
// comma-separated list of key=value pairs after the prefix:
//
//	scorer:zro=1,size=0.5,freq=0.3,ghost=0.2,reuse=0.4,
//	       mode=placement|filter,theta=0.8,tune=on|off,
//	       interval=50000,c=8192,ghostfrac=0.5,name=MyMix
//
// Scorer keys give initial mixer weights (at least one must be
// positive). mode defaults to placement; theta (filter mode only)
// defaults to -1, the probabilistic score >= u rule; tune defaults to
// on.
func ParseSpec(spec string) (Spec, error) {
	sp := Spec{theta: -1, raw: spec}
	if !IsSpec(spec) {
		return sp, fmt.Errorf("scorer: spec %q lacks the %q prefix", spec, SpecPrefix)
	}
	cfg := &sp.cfg
	cfg.Tune = true
	for _, kv := range strings.Split(spec[len(SpecPrefix):], ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			// A bare scorer name means weight 1.
			k, v = kv, "1"
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		num := func() (float64, error) {
			f, ferr := strconv.ParseFloat(v, 64)
			if ferr != nil {
				return 0, fmt.Errorf("scorer: bad value %q for %q in spec %q", v, k, spec)
			}
			return f, nil
		}
		var err error
		switch k {
		case "zro":
			cfg.ZRO, err = num()
		case "size":
			cfg.Size, err = num()
		case "freq":
			cfg.Freq, err = num()
		case "ghost":
			cfg.Ghost, err = num()
		case "reuse":
			cfg.Reuse, err = num()
		case "theta":
			sp.theta, err = num()
		case "c":
			cfg.C, err = num()
		case "ghostfrac":
			cfg.GhostFrac, err = num()
		case "interval":
			var f float64
			f, err = num()
			cfg.Interval = int(f)
		case "mode":
			mode := strings.ToLower(v)
			sp.filter = mode == "filter"
			if !sp.filter && mode != "placement" {
				err = fmt.Errorf("scorer: unknown mode %q in spec %q", v, spec)
			}
		case "tune":
			switch strings.ToLower(v) {
			case "on", "true", "1":
				cfg.Tune = true
			case "off", "false", "0":
				cfg.Tune = false
			default:
				err = fmt.Errorf("scorer: bad tune value %q in spec %q", v, spec)
			}
		case "name":
			cfg.Name = v
		default:
			err = fmt.Errorf("scorer: unknown key %q in spec %q", k, spec)
		}
		if err != nil {
			return sp, err
		}
	}
	if !cfg.selectsScorer() {
		return sp, fmt.Errorf("scorer: spec %q selects no scorers", spec)
	}
	return sp, nil
}

// New builds the cache.Policy the spec describes. interval > 0 overrides
// the spec's tuning window. The display name defaults to the spec text
// so experiment tables identify the exact mix. A parsed spec selects at
// least one scorer, so New cannot fail.
func (sp Spec) New(capBytes, seed int64, interval int) cache.Policy {
	cfg := sp.cfg
	cfg.Seed = seed
	if interval > 0 {
		cfg.Interval = interval
	}
	name := cfg.Name
	if name == "" {
		name = sp.raw
	}
	p := newPipeline(capBytes, cfg)
	if sp.filter {
		return newFilter(name, capBytes, sp.theta, p)
	}
	return cache.NewQueueCache(name, capBytes, p)
}
