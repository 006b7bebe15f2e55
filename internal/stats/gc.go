package stats

import (
	"fmt"
	"io"
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

// WriteGCPrometheus renders gc in the Prometheus text exposition format
// under namespace_gc_* (the daemon passes "scip_server").
func WriteGCPrometheus(w io.Writer, gc GCSnapshot, namespace string) error {
	series := []struct {
		name, typ, help, value string
	}{
		{"gc_cycles_total", "counter", "Completed GC cycles.",
			fmt.Sprintf("%d", gc.NumGC)},
		{"gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.",
			fmt.Sprintf("%.9f", gc.PauseTotal.Seconds())},
		{"gc_heap_scan_bytes", "gauge", "Scannable (pointer-bearing) heap bytes; flat in resident objects with the pointer-free cache core.",
			fmt.Sprintf("%d", gc.HeapScanBytes)},
		{"gc_cpu_fraction", "gauge", "Fraction of available CPU consumed by the GC since start.",
			fmt.Sprintf("%g", gc.CPUFraction)},
		{"gc_heap_objects", "gauge", "Live heap objects at the last sweep.",
			fmt.Sprintf("%d", gc.HeapObjects)},
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n%s_%s %s\n",
			namespace, s.name, s.help, namespace, s.name, s.typ, namespace, s.name, s.value); err != nil {
			return err
		}
	}
	return nil
}
