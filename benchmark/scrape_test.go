package main

import (
	"os"
	"strings"
	"testing"
)

func parseFile(t *testing.T, name string) scrapePage {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page, err := parseMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// testdata/serve.metrics is a /metrics page captured from a scip-serve
// node of a two-node fleet after 300 routed GETs over 40 keys.
func TestParseServePage(t *testing.T) {
	p := parseFile(t, "benchmark/testdata/serve.metrics")
	for family, want := range map[string]float64{
		"scip_requests_total":               172,
		"scip_hits_total":                   149,
		"scip_server_origin_fetches_total":  23,
		"scip_server_gc_cycles_total":       0,
		"scip_access_latency_seconds_count": 172,
	} {
		if got := p.sum(family); got != want {
			t.Errorf("sum(%s) = %g, want %g", family, got, want)
		}
	}
	if got := len(p.values("scip_requests_total")); got != 8 {
		t.Errorf("%d shard series, want 8", got)
	}
	// requests = hits + misses, and with no coalescing every miss fetched.
	if misses := p.sum("scip_requests_total") - p.sum("scip_hits_total"); misses != p.sum("scip_server_origin_fetches_total") {
		t.Errorf("misses %g != origin fetches", misses)
	}
	if got := p.histQuantile("scip_access_latency_seconds", 0.50); got != 4.096e-06 {
		t.Errorf("p50 bucket = %g", got)
	}
	if got := p.histQuantile("scip_access_latency_seconds", 0.99); got != 6.5536e-05 {
		t.Errorf("p99 bucket = %g", got)
	}
	if got := p.histQuantile("no_such_histogram", 0.99); got != 0 {
		t.Errorf("quantile of a missing histogram = %g", got)
	}
}

// testdata/route.metrics is the router's page from the same session.
func TestParseRoutePage(t *testing.T) {
	p := parseFile(t, "benchmark/testdata/route.metrics")
	if got := p.sum("scip_route_requests_total"); got != 302 {
		t.Errorf("routed requests = %g, want 302", got)
	}
	if got := p.values("scip_route_node_requests_total"); len(got) != 2 || got[0] != 173 || got[1] != 130 {
		t.Errorf("per-node requests = %v", got)
	}
	var labelled bool
	for _, s := range p {
		if s.name == "scip_route_requests_total" && s.labels == `method="put"` && s.value == 1 {
			labelled = true
		}
	}
	if !labelled {
		t.Error(`scip_route_requests_total{method="put"} 1 not found`)
	}
	if got := p.sum("scip_route_fanout_writes_total"); got != 1 {
		t.Errorf("fan-out writes = %g, want 1", got)
	}
	if got := p.sum("scip_route_proxy_latency_seconds_count"); got != 302 {
		t.Errorf("proxy latency count = %g", got)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue\n", "name{unterminated 1\n", "name notanumber\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) succeeded", bad)
		}
	}
}
