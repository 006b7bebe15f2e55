package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"syscall"
	"time"
)

// The client is one goroutine that owns every connection and polls them
// with non-blocking reads. On the 2-core sandbox that leaves one core to
// the daemons and keeps the runtime's timers and network poller — both
// of which wake a millisecond late on this kernel — out of every
// measured interval: a due time is met by spinning on the clock, and a
// response is seen the moment its last byte can be read.

// conn is one keep-alive HTTP/1.1 connection and the exchange in flight
// on it.
type conn struct {
	tcp *net.TCPConn
	raw syscall.RawConn
	out []byte // request bytes; out[sent:] is still to be written
	in  []byte // response bytes so far

	busy   bool
	k      int // position in the phase of the element in flight
	sent   int
	need   int // total response length once the header is parsed, else 0
	due    time.Time
	wrote  time.Time // when the request write began
	span   uint64
	status int
	hit    bool // X-Cache: HIT
	miss   bool // X-Cache: MISS
	hdrLen int  // length of the status line and headers
}

func dialConn(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	tcp := c.(*net.TCPConn)
	raw, err := tcp.SyscallConn()
	if err != nil {
		tcp.Close()
		return nil, err
	}
	return &conn{tcp: tcp, raw: raw, in: make([]byte, 0, maxBody+4096)}, nil
}

// begin frames the request into c.out and marks the connection busy.
func (c *conn) begin(host, method string, path, body []byte) {
	out := append(c.out[:0], method...)
	out = append(out, ' ')
	out = append(out, path...)
	out = append(out, " HTTP/1.1\r\nHost: "...)
	out = append(out, host...)
	out = append(out, "\r\n"...)
	if body != nil {
		out = append(out, "Content-Length: "...)
		out = strconv.AppendInt(out, int64(len(body)), 10)
		out = append(out, "\r\n"...)
	}
	if c.span != 0 {
		out = append(out, spanHeader+": "...)
		out = strconv.AppendUint(out, c.span, 10)
		out = append(out, "\r\n"...)
	}
	out = append(out, "\r\n"...)
	c.out = append(out, body...)
	c.in = c.in[:0]
	c.busy, c.sent, c.need = true, 0, 0
}

// pump moves the exchange forward without blocking: it writes what is
// left of the request, reads what has arrived of the response, and
// reports whether the response is complete.
func (c *conn) pump() (bool, error) {
	var ioErr error
	if c.sent < len(c.out) {
		err := c.raw.Write(func(fd uintptr) bool {
			n, err := syscall.Write(int(fd), c.out[c.sent:])
			if n > 0 {
				c.sent += n
			}
			if err != nil && err != syscall.EAGAIN && err != syscall.EINTR {
				ioErr = err
			}
			return true // never park: the loop comes back
		})
		if err != nil {
			return false, err
		}
		if ioErr != nil {
			return false, ioErr
		}
	}
	eof := false
	err := c.raw.Read(func(fd uintptr) bool {
		if len(c.in) == cap(c.in) {
			c.in = append(c.in, 0)[:len(c.in)]
		}
		n, err := syscall.Read(int(fd), c.in[len(c.in):cap(c.in)])
		switch {
		case n > 0:
			c.in = c.in[:len(c.in)+n]
		case n == 0 && err == nil:
			eof = true
		case err != syscall.EAGAIN && err != syscall.EINTR:
			ioErr = err
		}
		return true
	})
	if err != nil {
		return false, err
	}
	if ioErr != nil {
		return false, ioErr
	}
	if c.need == 0 {
		if err := c.parseHeader(); err != nil {
			return false, err
		}
	}
	if c.need > 0 && len(c.in) >= c.need {
		if len(c.in) > c.need {
			return false, fmt.Errorf("%d bytes beyond the response", len(c.in)-c.need)
		}
		return true, nil
	}
	if eof {
		return false, errors.New("connection closed mid-response")
	}
	return false, nil
}

var (
	hdrContentLength = []byte("content-length:")
	hdrXCache        = []byte("x-cache:")
	hdrChunked       = []byte("transfer-encoding:")
	crlfcrlf         = []byte("\r\n\r\n")
)

func hasPrefixFold(line, prefix []byte) bool {
	return len(line) >= len(prefix) && bytes.EqualFold(line[:len(prefix)], prefix)
}

// parseHeader parses the status line and headers once they have fully
// arrived and sets c.need.
func (c *conn) parseHeader() error {
	end := bytes.Index(c.in, crlfcrlf)
	if end < 0 {
		return nil
	}
	c.hdrLen = end + len(crlfcrlf)
	lines := bytes.Split(c.in[:end], []byte("\r\n"))
	if len(lines[0]) < 12 {
		return fmt.Errorf("short status line %q", lines[0])
	}
	status, err := strconv.Atoi(string(lines[0][9:12]))
	if err != nil {
		return fmt.Errorf("bad status line %q", lines[0])
	}
	c.status, c.hit, c.miss = status, false, false
	length := -1
	for _, line := range lines[1:] {
		switch {
		case hasPrefixFold(line, hdrContentLength):
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):])))
			if err != nil {
				return fmt.Errorf("bad content-length %q", line)
			}
		case hasPrefixFold(line, hdrXCache):
			v := bytes.TrimSpace(line[len(hdrXCache):])
			c.hit = bytes.Equal(v, []byte("HIT"))
			c.miss = bytes.Equal(v, []byte("MISS"))
		case hasPrefixFold(line, hdrChunked):
			return errors.New("unexpected chunked response")
		}
	}
	switch {
	case status == 204 || status == 304:
		length = 0
	case length < 0:
		return fmt.Errorf("status %d without content-length", status)
	}
	c.need = c.hdrLen + length
	return nil
}

func (c *conn) body() []byte { return c.in[c.hdrLen:c.need] }

// tally is what the client counted; the counter identities of the
// correctness gate compare these with the daemons' /metrics.
type tally struct {
	attempted, failed   int64
	gets, puts, deletes int64
	getMisses           int64 // GETs answered X-Cache: MISS
	hits                int64 // GETs and PUTs answered X-Cache: HIT
	getBytes, missBytes int64 // body bytes of all GETs, and of the MISS ones
	firstErr            string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.gets += o.gets
	t.puts += o.puts
	t.deletes += o.deletes
	t.getMisses += o.getMisses
	t.hits += o.hits
	t.getBytes += o.getBytes
	t.missBytes += o.missBytes
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(i int, r request, err error) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf("request %d (%s key %d): %v", i, opMethod[r.op], r.key, err)
	}
}

// fullCheckEvery: one GET in this many has its body compared byte for
// byte with the synthetic bytes for the key; every GET has its length
// checked.
const fullCheckEvery = 64

// checkResponse checks a completed exchange against what the stream
// element must produce.
func checkResponse(r request, c *conn) error {
	switch r.op {
	case opGet:
		if c.status != 200 {
			return fmt.Errorf("GET status %d", c.status)
		}
		if !c.hit && !c.miss {
			return errors.New("GET without X-Cache HIT/MISS")
		}
		if len(c.body()) != bodyLen(r.size) {
			return fmt.Errorf("GET body length %d, want %d", len(c.body()), bodyLen(r.size))
		}
	case opPut:
		if c.status != 204 {
			return fmt.Errorf("PUT status %d", c.status)
		}
	case opDelete:
		if c.status != 204 && c.status != 404 {
			return fmt.Errorf("DELETE status %d", c.status)
		}
	}
	return nil
}

// client drives one target over a fixed set of keep-alive connections.
type client struct {
	host  string
	conns []*conn
	reqs  []request
	// rec, when non-nil, records client.request/client.queue spans and
	// tags each request with its span id (traced phases only).
	rec *recorder
}

func newClient(addr string, nconn int, reqs []request) (*client, error) {
	cl := &client{host: addr, reqs: reqs}
	for i := 0; i < nconn; i++ {
		c, err := dialConn(addr)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.conns = append(cl.conns, c)
	}
	return cl, nil
}

func (cl *client) close() {
	for _, c := range cl.conns {
		c.tcp.Close()
	}
}

// sleepAbove is the distance to the next due time above which the idle
// loop sleeps instead of spinning; the sleep stops this far short of it,
// because timers on the sandbox kernel fire up to a millisecond late.
const sleepAbove = 4 * time.Millisecond

// heldBody is a GET body set aside for the byte-for-byte check, which
// runs after the phase so that it delays no request.
type heldBody struct {
	i    int
	body []byte
}

// run sends stream elements [first, first+n). With dues, element
// first+k is due at start+dues[k] whatever happened to the requests
// before it: it goes out on the first connection free at or after that
// time, in order, so a stalled server delays the requests queued behind
// the stall — and every latency is measured from the due time, which
// charges that delay to them (no coordinated omission). With nil dues
// every element is due at once, which makes the loop closed: the
// warm-up pass.
func (cl *client) run(first, n int, dues []time.Duration) (out outcome) {
	cpus.onCPUs(cpus.client, func() { out = cl.poll(first, n, dues) })
	return out
}

// outcome is what one run of the client produced.
type outcome struct {
	start   time.Time // the zero of the samples' due offsets
	samples []sample  // in stream order
	tally   tally
	wall    time.Duration // start → last completion
}

func (cl *client) poll(first, n int, dues []time.Duration) outcome {
	samples := make([]sample, n)
	var t tally
	var held []heldBody
	var path, body []byte
	prepared := false
	next, done := 0, 0
	start := time.Now().Add(time.Millisecond)
	for done < n {
		now := time.Now()
		// Dispatch every due element a free connection can take.
		for next < n {
			if !prepared {
				// Built ahead of the due time, so that neither the
				// path nor a PUT's body is charged to the request.
				r := cl.reqs[first+next]
				path, body = appendPath(path[:0], r, first+next), nil
				if r.op == opPut {
					body = expectedBody(r.key, r.size)
				}
				prepared = true
				now = time.Now()
			}
			due := start
			if dues != nil {
				due = start.Add(dues[next])
			}
			if now.Before(due) {
				break
			}
			c := cl.free()
			if c == nil {
				break
			}
			c.k, c.due, c.span = next, due, 0
			if cl.rec != nil {
				c.span = cl.rec.newID()
			}
			c.begin(cl.host, opMethod[cl.reqs[first+next].op], path, body)
			c.wrote = time.Now()
			next++
			prepared = false
		}
		// Poll the connections in flight.
		idle := true
		for _, c := range cl.conns {
			if !c.busy {
				continue
			}
			idle = false
			complete, err := c.pump()
			if !complete && err == nil {
				continue
			}
			end := time.Now()
			i, r := first+c.k, cl.reqs[first+c.k]
			c.busy = false
			done++
			t.attempted++
			samples[c.k] = sample{due: c.due.Sub(start), late: c.wrote.Sub(c.due), lat: end.Sub(c.due)}
			if cl.rec != nil {
				cl.rec.add(c.span, 0, int64(i), spanClientRequest, c.due, end)
				cl.rec.add(cl.rec.newID(), c.span, int64(i), spanClientQueue, c.due, c.wrote)
			}
			if err == nil {
				err = checkResponse(r, c)
			}
			if err != nil {
				t.fail(i, r, err)
				if c.need == 0 || len(c.in) != c.need {
					// Mid-response: the connection cannot be reused, and
					// what it would have carried fails with it.
					t.failed += int64(n - done)
					t.attempted += int64(n - done)
					return outcome{start, samples, t, time.Since(start)}
				}
				continue
			}
			switch r.op {
			case opGet:
				t.gets++
				t.getBytes += int64(len(c.body()))
				if c.miss {
					t.getMisses++
					t.missBytes += int64(len(c.body()))
				}
				if i%fullCheckEvery == 0 {
					held = append(held, heldBody{i, append([]byte(nil), c.body()...)})
				}
			case opPut:
				t.puts++
			case opDelete:
				t.deletes++
			}
			if c.hit && r.op != opDelete {
				t.hits++
			}
		}
		if idle && next < n && dues != nil {
			if d := time.Until(start.Add(dues[next])); d > sleepAbove {
				time.Sleep(d - sleepAbove/2)
			}
		}
	}
	wall := time.Since(start)
	for _, h := range held {
		if r := cl.reqs[h.i]; !bytes.Equal(h.body, expectedBody(r.key, r.size)) {
			t.fail(h.i, r, errors.New("GET body differs from the synthetic bytes for the key"))
		}
	}
	return outcome{start, samples, t, wall}
}

func (cl *client) free() *conn {
	for _, c := range cl.conns {
		if !c.busy {
			return c
		}
	}
	return nil
}
