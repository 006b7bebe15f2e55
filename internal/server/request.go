package server

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// reqScope is the pooled per-request state: the status capture the
// response-class counters read, and the PUT request-body read buffer.
// instrument checks one out per request and returns it after the
// handler finishes. Nothing handed to net/http may alias it past that
// point, so header values are ordinary strings. Response bodies never
// pass through it: they are the body store's immutable slices.
type reqScope struct {
	w      http.ResponseWriter
	status int
	body   []byte // request-body read buffer
}

var scopePool = sync.Pool{New: func() any {
	return &reqScope{body: make([]byte, 0, 4096)}
}}

// reset readies a pooled scope for the next request.
func (sc *reqScope) reset(w http.ResponseWriter) {
	sc.w = w
	sc.status = http.StatusOK
}

func (sc *reqScope) Header() http.Header         { return sc.w.Header() }
func (sc *reqScope) Write(p []byte) (int, error) { return sc.w.Write(p) }

func (sc *reqScope) WriteHeader(code int) {
	sc.status = code
	sc.w.WriteHeader(code)
}

// scopeOf recovers the request's scope from the ResponseWriter the
// instrument wrapper installed. Handlers invoked without the wrapper
// get nil and fall back to allocating paths.
func scopeOf(w http.ResponseWriter) *reqScope {
	sc, _ := w.(*reqScope)
	return sc
}

var errBodyTooLarge = errors.New("request body exceeds MaxBodyBytes")

// readBody reads r's body into the scope's reusable buffer, rejecting
// bodies over max. The returned slice is pooled memory: it is overwritten
// on scope reuse, so anything that outlives the request (the body store)
// must copy it. A nil scope reads through an allocating MaxBytesReader.
func (sc *reqScope) readBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	if sc == nil {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	}
	buf := sc.body[:0]
	for {
		if int64(len(buf)) > max {
			sc.body = buf
			return nil, errBodyTooLarge
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			sc.body = buf
			if int64(len(buf)) > max {
				return nil, errBodyTooLarge
			}
			return buf, nil
		}
		if err != nil {
			sc.body = buf
			return nil, err
		}
	}
}

// setHeader is http.Header.Set for a key already in canonical form.
func setHeader(h http.Header, key, value string) {
	h[key] = []string{value}
}

// parseQuery extracts the size and t parameters from a raw query string
// without the per-request map and slice allocations of r.URL.Query().
// The daemon's parameters are plain integers, so percent-decoding is
// deliberately not applied. Each parameter resolves as Query().Get does:
// its first occurrence wins, later duplicates are ignored, and an empty
// or missing value counts as absent. Absent values return -1.
func parseQuery(raw string) (size, t int64, err error) {
	size, t = -1, -1
	var sawSize, sawT bool
	for len(raw) > 0 {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		k, v, _ := strings.Cut(kv, "=")
		switch {
		case k == "size" && !sawSize:
			sawSize = true
			if v == "" {
				continue
			}
			size, err = strconv.ParseInt(v, 10, 64)
			if err != nil || size <= 0 {
				return 0, 0, badParamError{"size", v}
			}
		case k == "t" && !sawT:
			sawT = true
			if v == "" {
				continue
			}
			t, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, 0, badParamError{"t", v}
			}
		}
	}
	return size, t, nil
}

// badParamError defers the fmt-style message build to the error path so
// the happy path never touches fmt.
type badParamError struct{ param, value string }

func (e badParamError) Error() string { return "bad " + e.param + " " + strconv.Quote(e.value) }
