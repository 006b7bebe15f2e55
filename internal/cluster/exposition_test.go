package cluster

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/scip-cache/scip/internal/server"
)

var updateExposition = flag.Bool("update-exposition", false, "rewrite testdata/exposition.golden")

// handlerTransport is an in-process RoundTripper: a request for
// http://{host}/... is served by the handler registered for host. Fixed
// host names keep the ring, and so every per-node series, independent of
// the ports a loopback fleet would get.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t[r.URL.Host].ServeHTTP(rec, r.Clone(r.Context()))
	return rec.Result(), nil
}

// volatileSeries matches the sample lines whose values depend on timing
// or the runtime rather than on the requests served: uptime, the GC
// series, and the latency histograms' finite buckets and sums.
var volatileSeries = regexp.MustCompile(`^(\S*_uptime_seconds|\S*_gc_\S+|\S+_bucket\{le="[^+][^"]*"\}|\S+_sum) `)

// normaliseExposition replaces every volatile sample value with "X".
func normaliseExposition(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if m := volatileSeries.FindString(line); m != "" {
			lines[i] = m + "X"
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetricsExposition pins the full /metrics text of both daemons:
// one Server, and one Router over two in-process nodes, each driven
// through a fixed request script that touches every status class the
// handlers produce. The benchmark's scraper parses these families, so a
// refactor of either exposition must leave it byte-identical; only the
// volatile values are normalised.
func TestMetricsExposition(t *testing.T) {
	var out bytes.Buffer
	scrape := func(title string, h http.Handler) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("%s /metrics: Content-Type %q", title, ct)
		}
		out.WriteString("## " + title + "\n")
		out.WriteString(normaliseExposition(rec.Body.String()))
	}
	drive := func(h http.Handler, script []string) {
		for _, step := range script {
			method, target, _ := strings.Cut(step, " ")
			target, body, _ := strings.Cut(target, " ")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		}
	}
	newNode := func(maxBody int64) *server.Server {
		s, err := server.New(server.Config{Policy: "LRU", CacheBytes: 1 << 20, Shards: 2, MaxBodyBytes: maxBody})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}

	s := newNode(16)
	drive(s.Handler(), []string{
		"GET /obj/1?size=100&t=1",
		"GET /obj/1?size=100&t=2",
		"GET /obj/2",
		"PUT /obj/3?size=50&t=3 hello",
		"PUT /obj/4?t=4 0123456789abcdefX",
		"PUT /obj/5?t=5",
		"DELETE /obj/3",
		"DELETE /obj/99",
		"GET /obj/abc",
		"GET /obj/6?size=-1",
		"POST /obj/1",
		"GET /peer/1",
		"GET /peer/77",
		"GET /healthz",
		"GET /statusz",
		"GET /nowhere",
	})
	scrape("scip-serve", s.Handler())

	nodes := handlerTransport{"node-a": newNode(0).Handler(), "node-b": newNode(0).Handler()}
	rt, err := NewRouter(RouterConfig{
		Nodes:          []string{"http://node-a", "http://node-b"},
		Replicate:      true,
		HotK:           2,
		HotMin:         2,
		HealthInterval: -1,
		MaxBodyBytes:   16,
		Client:         &http.Client{Transport: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	var script []string
	for round := 0; round < 3; round++ {
		for _, key := range []string{"1", "2", "3", "4", "5"} {
			script = append(script, "GET /obj/"+key+"?size=200")
		}
	}
	script = append(script,
		"PUT /obj/1?size=200 fresh",
		"PUT /obj/6?size=10 new",
		"PUT /obj/7 0123456789abcdefX",
		"DELETE /obj/2",
		"DELETE /obj/99",
		"GET /obj/abc",
		"GET /obj/8",
		"POST /obj/1",
		"GET /healthz",
		"GET /statusz",
	)
	drive(rt.Handler(), script)
	scrape("scip-route", rt.Handler())

	path := filepath.Join("testdata", "exposition.golden")
	if *updateExposition {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-exposition to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
