package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/scip-cache/scip/internal/httpx"
)

// Origin is the daemon's upstream: where object bodies come from on a
// cache miss. size is the declared object size in bytes, or < 0 when the
// request did not declare one; the returned objSize is the authoritative
// size used for cache accounting. The returned body may be shorter than
// objSize (origins cap generated or stored bodies), which affects only
// the response payload, never the accounting.
//
// A returned body is handed over to the caller: the origin must not
// retain it or modify it afterwards. The server stores it as is and
// serves it to concurrent readers, so every Fetch returns a fresh slice.
type Origin interface {
	Fetch(ctx context.Context, key uint64, size int64) (body []byte, objSize int64, err error)
}

// SyntheticOrigin is a deterministic in-process origin: the body bytes
// are a pure function of the key, so two fetches of the same object are
// bit-identical and a "hit" body can always be reconstructed. It stands
// in for a real upstream in tests, benchmarks and trace replay, the same
// way the synthetic workload generators stand in for the paper's
// proprietary traces.
type SyntheticOrigin struct {
	// Latency is an artificial per-fetch delay (0 = none), interruptible
	// by the context.
	Latency time.Duration
	// MaxBody caps the generated body length in bytes (default 64 KiB).
	// Accounting uses the declared object size regardless.
	MaxBody int64
}

// syntheticMaxBodyDefault bounds generated bodies when MaxBody is unset:
// big enough to exercise real payloads, small enough that replaying a
// CDN trace over loopback is not a memory-bandwidth benchmark.
const syntheticMaxBodyDefault = 64 << 10

// Fetch implements Origin.
func (o *SyntheticOrigin) Fetch(ctx context.Context, key uint64, size int64) ([]byte, int64, error) {
	if o.Latency > 0 {
		t := time.NewTimer(o.Latency)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-t.C:
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if size < 0 {
		size = syntheticSize(key)
	}
	maxBody := o.MaxBody
	if maxBody <= 0 {
		maxBody = syntheticMaxBodyDefault
	}
	n := size
	if n > maxBody {
		n = maxBody
	}
	// The SplitMix64 stream seeded with key, one word per 8 bytes, laid
	// out little-endian; the tail takes the low bytes of one more word.
	// Any length is therefore a prefix of every longer one.
	body := make([]byte, n)
	x, i := key, 0
	for ; i+8 <= len(body); i += 8 {
		binary.LittleEndian.PutUint64(body[i:], splitmix64(x))
		x += splitmixGamma
	}
	for w := splitmix64(x); i < len(body); i++ {
		body[i] = byte(w)
		w >>= 8
	}
	return body, size, nil
}

// syntheticSize derives a deterministic object size in [1 KiB, 64 KiB)
// for requests that declare none.
func syntheticSize(key uint64) int64 {
	return 1<<10 + int64(splitmix64(key)%(63<<10))
}

// splitmixGamma is SplitMix64's state increment (the golden ratio in
// 64-bit fixed point).
const splitmixGamma = 0x9E3779B97F4A7C15

// splitmix64 is one SplitMix64 output for state x: advance by the gamma,
// then mix. The mix is a bijective scramble, so distinct keys yield
// distinct byte streams.
func splitmix64(x uint64) uint64 {
	x += splitmixGamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// HTTPOrigin fetches bodies from a real upstream with
// GET {Base}/{key}. Timeouts, retries and backoff are applied by the
// server around Fetch, not here, so every Origin implementation gets the
// same resilience behaviour.
type HTTPOrigin struct {
	// Base is the upstream URL prefix; the decimal key is appended as a
	// path element.
	Base string
	// Client is the HTTP client to use (default: one with a pooled
	// transport, shared by every HTTPOrigin without a Client).
	Client *http.Client
}

// defaultOriginClient serves every HTTPOrigin without a Client.
var defaultOriginClient = httpx.NewClient(1)

// Fetch implements Origin. A body of declared length arrives in a buffer
// of exactly that length (see httpx.Fetch).
func (o *HTTPOrigin) Fetch(ctx context.Context, key uint64, size int64) ([]byte, int64, error) {
	client := o.Client
	if client == nil {
		client = defaultOriginClient
	}
	url := o.Base + "/" + strconv.FormatUint(key, 10)
	body, err := httpx.Fetch(ctx, client, url)
	if _, ok := err.(*httpx.StatusError); ok {
		return nil, 0, fmt.Errorf("origin %s: %w", url, err)
	}
	if err != nil {
		return nil, 0, err
	}
	if size < 0 {
		size = int64(len(body))
	}
	return body, size, nil
}
