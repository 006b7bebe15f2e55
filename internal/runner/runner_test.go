package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(4) != 4 {
		t.Fatal("explicit count not honoured")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatal("zero should default to GOMAXPROCS")
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("negative should default to GOMAXPROCS")
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map[int](4, 0, func(int) (int, error) { t.Fatal("fn called"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty Map = (%v, %v)", got, err)
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(workers, 64, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, want <= %d", p, workers)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 50, func(i int) (int, error) {
			if i == 7 || i == 20 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if err.Error() != "job 7 failed" && workers > 1 {
			// Parallel runs may skip job 7 if 20 fails first, but the
			// returned error must still be the lowest-indexed one recorded.
			if err.Error() != "job 20 failed" {
				t.Fatalf("workers=%d: unexpected error %v", workers, err)
			}
		}
		if workers == 1 && err.Error() != "job 7 failed" {
			t.Fatalf("serial: error = %v, want job 7", err)
		}
	}
}

func TestMemoSingleflight(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	const goroutines = 16
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			v, err := m.Do("k", func() (int, error) {
				calls.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}(g)
	}
	close(start)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
	for g, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d got %d", g, v)
		}
	}
	if len(m.m) != 1 {
		t.Fatalf("memoised %d keys, want 1", len(m.m))
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	var m Memo[int, string]
	boom := errors.New("boom")
	if _, err := m.Do(1, func() (string, error) { return "", boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if len(m.m) != 0 {
		t.Fatal("failure memoised")
	}
	v, err := m.Do(1, func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry = (%q, %v)", v, err)
	}
}

func TestMemoClear(t *testing.T) {
	var m Memo[int, int]
	var calls int
	gen := func() (int, error) { calls++; return calls, nil }
	if v, _ := m.Do(1, gen); v != 1 {
		t.Fatal("first Do")
	}
	if v, _ := m.Do(1, gen); v != 1 {
		t.Fatal("not memoised")
	}
	m.Clear()
	if len(m.m) != 0 {
		t.Fatal("Clear did not empty")
	}
	if v, _ := m.Do(1, gen); v != 2 {
		t.Fatal("Clear did not force regeneration")
	}
}
