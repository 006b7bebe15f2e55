package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/server"
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
)

var opMethod = [...]string{"GET", "PUT", "DELETE"}

// request is one element of a served workload's stream. Its index in
// the stream is its logical time and its request id (the t query value).
type request struct {
	op   opKind
	key  uint64
	size int64
}

// genTrace generates the workload's trace from the harness seed.
func genTrace(w workload, seed int64) ([]cache.Request, error) {
	tr, err := gen.Generate(w.profile.Config(w.scale, seed))
	if err != nil {
		return nil, err
	}
	return tr.Requests, nil
}

// buildStream returns the first n requests of the workload's stream.
func buildStream(w workload, seed int64, n int) ([]request, error) {
	reqs := make([]request, n)
	if w.profile == "" {
		// serve-hot: a seeded bounded Zipf over a fixed key set.
		cdf := make([]float64, hotKeys)
		sum := 0.0
		for i := range cdf {
			sum += math.Pow(float64(i+1), -hotAlpha)
			cdf[i] = sum
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range reqs {
			rank := sort.SearchFloat64s(cdf, rng.Float64()*sum)
			if rank >= hotKeys {
				rank = hotKeys - 1
			}
			reqs[i] = request{op: opGet, key: uint64(rank) + 1, size: hotSize}
		}
		return reqs, nil
	}
	tr, err := genTrace(w, seed)
	if err != nil {
		return nil, err
	}
	if len(tr) < n {
		return nil, fmt.Errorf("%s: trace has %d requests, the run needs %d", w.name, len(tr), n)
	}
	for i := range reqs {
		r := request{op: opGet, key: tr[i].Key, size: tr[i].Size}
		switch {
		case w.deleteEvery > 0 && (i+1)%w.deleteEvery == 0:
			r.op = opDelete
		case w.putEvery > 0 && (i+1)%w.putEvery == 0:
			r.op = opPut
		}
		reqs[i] = r
	}
	return reqs, nil
}

// appendPath appends the request line's path for stream element i.
func appendPath(dst []byte, r request, i int) []byte {
	dst = append(dst, "/obj/"...)
	dst = strconv.AppendUint(dst, r.key, 10)
	dst = append(dst, "?size="...)
	dst = strconv.AppendInt(dst, r.size, 10)
	dst = append(dst, "&t="...)
	return strconv.AppendInt(dst, int64(i), 10)
}

// bodyLen is the length of the body the daemons serve for an object of
// the given declared size.
func bodyLen(size int64) int {
	if size > maxBody {
		return maxBody
	}
	return int(size)
}

// expectedBody returns the bytes every tier must serve for key: the
// synthetic origin's, which are a pure function of the key. PUTs send
// the same bytes, so a GET verifies the same way before and after one.
func expectedBody(key uint64, size int64) []byte {
	body, _, err := (&server.SyntheticOrigin{MaxBody: maxBody}).Fetch(context.Background(), key, size)
	if err != nil {
		panic(err) // unreachable: a background context never cancels
	}
	return body
}

// schedule returns n seeded Poisson arrival offsets at the given rate,
// rescaled to span exactly n/rate so the offered rate is exact.
func schedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += rng.ExpFloat64()
		at[i] = t
	}
	// One more gap closes the span, so the last arrival is not pinned to
	// its end.
	t += rng.ExpFloat64()
	span := float64(n) / rate
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(at[i] / t * span * float64(time.Second))
	}
	return dues
}
