package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// stubServer answers every GET with the synthetic bytes for the key and
// stalls for `stall` on the request whose t is stallAt.
func stubServer(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /obj/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, _ := strconv.ParseUint(r.PathValue("key"), 10, 64)
		size, _ := strconv.ParseInt(r.URL.Query().Get("size"), 10, 64)
		if requestID(r.URL.RawQuery) == stallAt {
			time.Sleep(stall)
		}
		body := expectedBody(key, size)
		w.Header().Set("X-Cache", "HIT")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// The coordinated-omission test: one connection, one request due every
// 500 µs, and a server that stalls 50 ms on request 100. A closed-loop
// timer would see one slow request. Timed from when each request was
// due, the stall shows in every request queued behind it — and in the
// lateness percentile.
func TestOpenLoopChargesAStallToTheQueueBehindIt(t *testing.T) {
	const (
		n       = 300
		stallAt = 100
		stall   = 50 * time.Millisecond
		gap     = 500 * time.Microsecond
	)
	srv := stubServer(t, stallAt, stall)
	reqs := make([]request, n)
	dues := make([]time.Duration, n)
	for i := range reqs {
		reqs[i] = request{op: opGet, key: uint64(i%7) + 1, size: 100}
		dues[i] = time.Duration(i) * gap
	}
	cl, err := newClient(srv.Listener.Addr().String(), 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	out := cl.run(0, n, dues)
	if out.tally.failed != 0 || out.tally.attempted != n {
		t.Fatalf("attempted %d, failed %d: %s", out.tally.attempted, out.tally.failed, out.tally.firstErr)
	}
	if out.tally.gets != n || out.tally.hits != n {
		t.Errorf("gets %d hits %d, want %d each", out.tally.gets, out.tally.hits, n)
	}
	s := out.samples
	if s[stallAt].lat < stall {
		t.Errorf("the stalled request took %v, want at least %v", s[stallAt].lat, stall)
	}
	// The next request was due 500 µs into the stall and could not be
	// sent until it ended.
	if s[stallAt+1].late < stall-2*gap {
		t.Errorf("the request behind the stall was sent %v late, want about %v", s[stallAt+1].late, stall-gap)
	}
	if s[stallAt+1].lat < s[stallAt+1].late {
		t.Errorf("latency %v does not include lateness %v", s[stallAt+1].lat, s[stallAt+1].late)
	}
	slow := 0
	for _, x := range s {
		if x.lat >= 10*time.Millisecond {
			slow++
		}
	}
	// 50 ms of backlog at one request per 500 µs is a hundred requests;
	// well over a dozen of them wait more than 10 ms.
	if slow < 20 {
		t.Errorf("%d requests saw the stall, want the whole queue behind it (>= 20)", slow)
	}
	if s[stallAt-1].lat >= 10*time.Millisecond {
		t.Errorf("a request before the stall took %v", s[stallAt-1].lat)
	}
	span := time.Duration(n) * gap
	if late := windowedQuantiles(s, span, span, lateOf, 0.99)[0]; late < 10_000 {
		t.Errorf("lateness p99 = %.0f us, the stall must show in it", late)
	}
}

// A closed loop (no due times) sends each request as soon as a
// connection is free and counts PUTs, DELETEs and misses apart.
func TestClosedLoopTallies(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /obj/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, _ := strconv.ParseUint(r.PathValue("key"), 10, 64)
		size, _ := strconv.ParseInt(r.URL.Query().Get("size"), 10, 64)
		body := expectedBody(key, size)
		w.Header().Set("X-Cache", "MISS")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
	mux.HandleFunc("PUT /obj/{key}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cache", "HIT")
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /obj/{key}", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not cached", http.StatusNotFound)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	reqs := []request{
		{opGet, 1, 70_000}, // served capped at 64 KiB
		{opPut, 2, 3000},
		{opDelete, 3, 10},
		{opGet, 4, 10},
	}
	cl, err := newClient(srv.Listener.Addr().String(), 2, reqs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	got := cl.run(0, len(reqs), nil).tally
	want := tally{attempted: 4, gets: 2, puts: 1, deletes: 1, getMisses: 2, hits: 1,
		getBytes: maxBody + 10, missBytes: maxBody + 10}
	if got != want {
		t.Errorf("tally = %+v\nwant    %+v", got, want)
	}
}

// A wrong body is a failed request, found by the byte-for-byte check.
func TestWrongBodyFails(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /obj/{key}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cache", "HIT")
		w.Write(make([]byte, 100)) // right length, wrong bytes
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	reqs := []request{{opGet, 1, 100}} // index 0 is one of the 1-in-64 fully checked
	cl, err := newClient(srv.Listener.Addr().String(), 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	if got := cl.run(0, 1, nil).tally; got.failed != 1 {
		t.Errorf("failed = %d, want 1 (%s)", got.failed, got.firstErr)
	}
}

func TestScheduleIsSeededAndExact(t *testing.T) {
	a, b := schedule(7, 1000, 2000), schedule(7, 1000, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not monotonic at %d", i)
		}
	}
	if c := schedule(8, 1000, 2000); c[10] == a[10] {
		t.Error("different seeds gave the same arrival")
	}
	if last := a[len(a)-1]; last > 500*time.Millisecond || last < 490*time.Millisecond {
		t.Errorf("1000 arrivals at 2000/s end at %v, want just under 500ms", last)
	}
}
