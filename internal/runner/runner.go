package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n > 0 is used as-is,
// anything else defaults to GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map evaluates fn(0..n-1) on at most workers goroutines and returns the
// results in index order. workers <= 0 defaults to GOMAXPROCS; workers ==
// 1 degenerates to a plain serial loop (no goroutines).
//
// On error the lowest-indexed error observed is returned; jobs that have
// not started when an error is recorded are skipped (their result is the
// zero value), so callers must not use the result slice when err != nil.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if failed.Load() {
					continue // drain remaining indices without running them
				}
				v, err := fn(i)
				out[i], errs[i] = v, err
				if err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Memo is a concurrency-safe memoizing map with singleflight semantics:
// concurrent callers of Do with the same key share a single execution of
// fn, and later callers get the memoised value without re-running it.
// Failed executions are not memoised. The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns the memoised value for key, computing it with fn if absent.
// If another goroutine is already computing key, Do blocks until that
// computation finishes and shares its result.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	if e, ok := m.m[key]; ok {
		m.mu.Unlock()
		<-e.done
		return e.v, e.err
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = e
	m.mu.Unlock()

	e.v, e.err = fn()
	if e.err != nil {
		// Do not memoise failures: a later caller may retry.
		m.mu.Lock()
		delete(m.m, key)
		m.mu.Unlock()
	}
	close(e.done)
	return e.v, e.err
}

// Clear drops all memoised values. In-flight computations complete and
// deliver their value to current waiters but are not re-memoised.
func (m *Memo[K, V]) Clear() {
	m.mu.Lock()
	m.m = nil
	m.mu.Unlock()
}
