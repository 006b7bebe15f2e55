package stats

import (
	"fmt"
	"io"
	"strconv"
)

// This file renders the Prometheus text exposition format (version
// 0.0.4). PromWriter is the one writer behind every exposition in the
// repository: the per-shard cache series and latency histogram below,
// the GC series (gc.go), and scip-serve's and scip-route's own families.
// The output is deterministic (families in a fixed order, shards in index
// order) so tests can pin it and scrapes diff cleanly.

// ContentType is the Content-Type of a text exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter writes the text exposition format to an io.Writer and
// latches the first write error, so renderers need no per-line error
// plumbing.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a PromWriter rendering to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) Write(b []byte) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	n, err := p.w.Write(b)
	p.err = err
	return n, err
}

// Family opens the family name of type typ ("counter", "gauge" or
// "histogram"): its # HELP and # TYPE lines.
func (p *PromWriter) Family(name, typ, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes the unlabelled sample name v.
func (p *PromWriter) Sample(name string, v any) { fmt.Fprintf(p, "%s %v\n", name, v) }

// Labelled writes the sample name{label="lv"} v.
func (p *PromWriter) Labelled(name, label string, lv, v any) {
	fmt.Fprintf(p, "%s{%s=\"%v\"} %v\n", name, label, lv, v)
}

// Metric writes a family holding one unlabelled sample.
func (p *PromWriter) Metric(name, typ, help string, v any) {
	p.Family(name, typ, help)
	p.Sample(name, v)
}

// Histogram writes one latency histogram (buckets on the package's
// power-of-two geometry, as Histogram.Snapshot returns them or a
// Snapshot carries them) as a family with cumulative _bucket series,
// _sum and _count.
func (p *PromWriter) Histogram(name, help string, buckets [NumLatencyBuckets]int64, sumNanos int64) {
	p.Family(name, "histogram", help)
	var cum int64
	for b, n := range buckets {
		cum += n
		p.Labelled(name+"_bucket", "le", strconv.FormatFloat(LatencyBucketBound(b).Seconds(), 'g', -1, 64), cum)
	}
	p.Labelled(name+"_bucket", "le", "+Inf", cum)
	p.Sample(name+"_sum", strconv.FormatFloat(float64(sumNanos)/1e9, 'g', -1, 64))
	p.Sample(name+"_count", cum)
}

// promFamily describes one per-shard counter family.
type promFamily struct {
	name string
	typ  string // "counter" or "gauge"
	help string
	get  func(ShardSnapshot) int64
}

// promFamilies lists the exported per-shard series, in exposition order.
// OPERATIONS.md carries the operator-facing catalogue; keep the two in
// sync.
var promFamilies = []promFamily{
	{"requests_total", "counter", "Accesses routed to the shard.",
		func(c ShardSnapshot) int64 { return c.Requests }},
	{"hits_total", "counter", "Accesses served from cache.",
		func(c ShardSnapshot) int64 { return c.Hits }},
	{"bytes_requested_total", "counter", "Sum of requested object sizes in bytes.",
		func(c ShardSnapshot) int64 { return c.BytesRequested }},
	{"bytes_hit_total", "counter", "Sum of cache-served object sizes in bytes.",
		func(c ShardSnapshot) int64 { return c.BytesHit }},
	{"evictions_total", "counter", "Objects evicted by the shard policy.",
		func(c ShardSnapshot) int64 { return c.Evictions }},
	{"used_bytes", "gauge", "Last observed shard occupancy in bytes.",
		func(c ShardSnapshot) int64 { return c.UsedBytes }},
}

// WritePrometheus renders snap under the given metric namespace (e.g.
// "scip" yields scip_requests_total{shard="0"} series and a
// scip_access_latency_seconds histogram). It returns the first write
// error.
func WritePrometheus(w io.Writer, snap Snapshot, namespace string) error {
	p := NewPromWriter(w)
	for _, fam := range promFamilies {
		full := namespace + "_" + fam.name
		p.Family(full, fam.typ, fam.help)
		for i, c := range snap.Shards {
			p.Labelled(full, "shard", i, fam.get(c))
		}
	}
	p.Histogram(namespace+"_access_latency_seconds",
		"Cache access latency (policy decision under the shard lock).",
		snap.Latency, snap.LatencySumNanos)
	return p.Err()
}
