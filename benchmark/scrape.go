package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string // family name, without labels
	labels string // the text between the braces, "" when there is none
	value  float64
}

// scrapePage is a parsed /metrics page, in exposition order.
type scrapePage []series

// parseMetrics parses Prometheus text format 0.0.4 as the two daemons
// write it: comment lines, then `name{labels} value` or `name value`.
func parseMetrics(r io.Reader) (scrapePage, error) {
	var page scrapePage
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		s := series{name: strings.TrimSpace(line[:sp]), value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
			}
			s.labels = s.name[open+1 : len(s.name)-1]
			s.name = s.name[:open]
		}
		page = append(page, s)
	}
	return page, sc.Err()
}

// sum adds every series of a family (all shards, all label values).
func (p scrapePage) sum(family string) float64 {
	var total float64
	for _, s := range p {
		if s.name == family {
			total += s.value
		}
	}
	return total
}

// values returns a family's series values in exposition order.
func (p scrapePage) values(family string) []float64 {
	var out []float64
	for _, s := range p {
		if s.name == family {
			out = append(out, s.value)
		}
	}
	return out
}

// histQuantile reads quantile q off a cumulative histogram family: the
// upper bound, in seconds, of the first bucket that holds it. The
// daemons' buckets are powers of two, so this is a coarse reading.
func (p scrapePage) histQuantile(family string, q float64) float64 {
	count := p.sum(family + "_count")
	if count == 0 {
		return 0
	}
	for _, s := range p {
		if s.name != family+"_bucket" || s.value < q*count {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(s.labels, `le="`), `"`)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return 0 // the +Inf bucket: beyond the histogram's range
		}
		return bound
	}
	return 0
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrape fetches and parses http://addr/metrics.
func scrape(addr string) (scrapePage, error) {
	resp, err := scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	return parseMetrics(resp.Body)
}
