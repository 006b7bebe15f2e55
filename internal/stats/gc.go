package stats

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// GCSnapshot captures the garbage-collector counters the pointer-free
// data plane is designed to keep flat: with cache metadata in scalar
// arena chunks and index tables (internal/cache.Arena, Index), heap-scan
// bytes and pause totals must stay independent of the number of resident
// objects; an arena's only scannable memory is its chunk directory, two
// pointers per 512 entries. The serving
// daemon exports these as scip_server_gc_* so a deployment can verify
// that property live (DESIGN.md §12).
type GCSnapshot struct {
	// NumGC is the number of completed GC cycles since process start.
	NumGC uint32
	// PauseTotal is the cumulative stop-the-world pause time.
	PauseTotal time.Duration
	// HeapScanBytes is the amount of heap memory the GC considers
	// scannable (pointer-bearing); the chunk-backed cache core contributes
	// only its chunk directories to it.
	HeapScanBytes uint64
	// CPUFraction is the fraction of available CPU consumed by the GC
	// since process start.
	CPUFraction float64
	// HeapObjects is the number of live heap objects at the last sweep.
	HeapObjects uint64
}

// ReadGC samples the runtime's GC counters. It is a control-plane call
// (metrics scrape, /statusz), not for request paths.
func ReadGC() GCSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := GCSnapshot{
		NumGC:       ms.NumGC,
		PauseTotal:  time.Duration(ms.PauseTotalNs),
		CPUFraction: ms.GCCPUFraction,
		HeapObjects: ms.HeapObjects,
	}
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		s.HeapScanBytes = sample[0].Value.Uint64()
	}
	return s
}

// GC writes gc's series as namespace_gc_* families (the daemon passes
// "scip_server").
func (p *PromWriter) GC(gc GCSnapshot, namespace string) {
	p.Metric(namespace+"_gc_cycles_total", "counter", "Completed GC cycles.", gc.NumGC)
	p.Metric(namespace+"_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.",
		fmt.Sprintf("%.9f", gc.PauseTotal.Seconds()))
	p.Metric(namespace+"_gc_heap_scan_bytes", "gauge", "Scannable (pointer-bearing) heap bytes; flat in resident objects with the pointer-free cache core.",
		gc.HeapScanBytes)
	p.Metric(namespace+"_gc_cpu_fraction", "gauge", "Fraction of available CPU consumed by the GC since start.",
		gc.CPUFraction)
	p.Metric(namespace+"_gc_heap_objects", "gauge", "Live heap objects at the last sweep.", gc.HeapObjects)
}
