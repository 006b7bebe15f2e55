package main

import (
	"math"
	"testing"
)

func TestSelfTimeClipsAndMergesChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 20–30 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // outlives the parent: clipped at 100
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (20 + 20 + 10), // a 10–30, b's remainder 30–50, c 90–100
		20,
		30 - 20, // b minus d
		30,      // c keeps its own full duration
		20,
		7,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 10, End: 20},
		{ID: 2, Parent: 1, Name: "wider", Start: 0, End: 40},
	}
	if self := selfTimes(spans); self[0] != 0 {
		t.Errorf("self of a fully covered parent = %d, want 0", self[0])
	}
}

// Without overlapping siblings the self times of a tree sum to the
// root's duration: the budget table sums to the client-observed time.
func TestBudgetSumsToClientTime(t *testing.T) {
	var spans []span
	id := uint64(0)
	add := func(parent uint64, name string, start, end int64) uint64 {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Req: 1, Name: name, Start: start, End: end})
		return id
	}
	for r := int64(0); r < 3; r++ {
		base := r * 10_000
		root := add(0, spanClientRequest, base, base+1000)
		add(root, spanClientQueue, base, base+100)
		route := add(root, spanClusterRoute, base+150, base+900)
		up := add(route, spanUpstream, base+200, base+850)
		handle := add(up, spanServerHandle, base+300, base+800)
		add(handle, spanOriginFetch, base+400, base+700)
	}
	add(0, spanServerHandle, 50_000, 50_500) // a warm-up request nobody traced from the client: left out
	b := buildBudget(spans)
	if b.Requests != 3 {
		t.Fatalf("requests = %d, want 3", b.Requests)
	}
	if math.Abs(b.SumPC-100) > 1e-9 {
		t.Errorf("self times sum to %.3f%% of client.request, want 100", b.SumPC)
	}
	if math.Abs(b.ClientUS-1.0) > 1e-9 {
		t.Errorf("client.request mean = %g us, want 1", b.ClientUS)
	}
	wantSelfNS := map[string]float64{
		spanClientRequest: 1000 - 100 - 750,
		spanClientQueue:   100,
		spanClusterRoute:  750 - 650,
		spanUpstream:      650 - 500,
		spanServerHandle:  500 - 300,
		spanOriginFetch:   300,
	}
	var sum float64
	for name, want := range wantSelfNS {
		got := b.row(name)
		if math.Abs(got.SelfUS*1e3-want) > 1e-6 {
			t.Errorf("%s self = %g ns/request, want %g", name, got.SelfUS*1e3, want)
		}
		if got.Count != 3 {
			t.Errorf("%s count = %d, want 3 (the untraced span must be left out)", name, got.Count)
		}
		sum += got.SelfUS
	}
	if math.Abs(sum-b.ClientUS) > 1e-9 {
		t.Errorf("rows sum to %g us, client.request is %g us", sum, b.ClientUS)
	}
}

func TestRequestID(t *testing.T) {
	for q, want := range map[string]int64{"size=10&t=42": 42, "t=7": 7, "size=10": -1, "": -1, "fast=1": -1} {
		if got := requestID(q); got != want {
			t.Errorf("requestID(%q) = %d, want %d", q, got, want)
		}
	}
}
