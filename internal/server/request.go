package server

import (
	"net/http"
	"strconv"
	"strings"
)

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
