package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wisp/internal/serve"
	"wisp/internal/wire"
)

// client drives the stack from pre-generated items.  The only state it
// carries between requests is each client's last echoed session ID,
// which its resumes offer back in Request.Key.
type client struct {
	conns    []*wire.Transport // the client side of each wire connection
	ids      []string
	hmacKey  [][]byte
	sessions []atomic.Pointer[[]byte]
	tr       *tracer // nil when requests are not traced
}

func newClient(g *generator, conns []*wire.Transport) *client {
	c := &client{conns: conns, hmacKey: g.hmacKey, sessions: make([]atomic.Pointer[[]byte], g.w.clients)}
	for i := 0; i < g.w.clients; i++ {
		c.ids = append(c.ids, clientID(i))
	}
	return c
}

// request builds the wire request for it.  A resume offers the client's
// last echoed session ID; hmac-sha1 carries the client's own key so the
// result can be checked against crypto/hmac.
func (c *client) request(it *item) *serve.Request {
	req := &serve.Request{ID: it.id, Op: it.spec.op, Payload: it.payload, ClientID: c.ids[it.client]}
	switch {
	case it.spec.resume:
		req.Resume = true
		if sid := c.sessions[it.client].Load(); sid != nil {
			req.Key = *sid
		}
	case it.spec.op == serve.OpHMACSHA1:
		req.Key = c.hmacKey[it.client]
	}
	if it.spec.op == serve.OpSSL {
		req.RecordSize = recordSize
	}
	return req
}

// Failure kinds counted in fail_ratio.
const (
	failShed      = "shed"
	failExpired   = "expired"
	failError     = "error"
	failTransport = "transport"
	failMismatch  = "mismatch"
)

// tally accumulates the outcomes of one phase.
type tally struct {
	mu          sync.Mutex
	attempted   int
	ok          int
	fails       map[string]int
	firstErrors []string
	resumeAsked int
	resumed     int
	rsaCTs      [][]byte // rsa-decrypt ciphertexts the gateway produced, for layer replay
}

func newTally() *tally { return &tally{fails: map[string]int{}} }

func (t *tally) failed() int { return t.attempted - t.ok }

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	for k, v := range o.fails {
		t.fails[k] += v
	}
	t.firstErrors = append(t.firstErrors, o.firstErrors...)
	t.resumeAsked += o.resumeAsked
	t.resumed += o.resumed
}

// do sends one item on conn, checks the answer and records the outcome.
// It reports whether the request succeeded.
func (c *client) do(it *item, conn *wire.Transport, t *tally, due int64) bool {
	req := c.request(it)
	var rec *reqTrace
	if c.tr != nil {
		rec = c.tr.slot(it.id)
	}
	var start int64
	if rec != nil {
		start = c.tr.now()
	}
	resp, err := conn.RoundTrip(req)
	if rec != nil {
		rec.sched, rec.rtStart, rec.rtEnd = due, start, c.tr.now()
		if resp != nil {
			rec.queueUS, rec.serviceUS = resp.QueueUS, resp.ServiceUS
			rec.op, rec.resumed, rec.batch = it.spec.op, resp.Resumed, resp.Batch
			rec.bytes = len(it.payload)
		}
	}
	kind, detail := c.check(it, resp, err)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if it.spec.resume && kind == "" {
		t.resumeAsked++
		if resp.Resumed {
			t.resumed++
		}
	}
	if kind != "" {
		t.fails[kind]++
		if len(t.firstErrors) < 5 {
			t.firstErrors = append(t.firstErrors, fmt.Sprintf("request %s (%s): %s: %s", it.id, it.spec.op, kind, detail))
		}
		return false
	}
	t.ok++
	if it.spec.op == serve.OpRSADecrypt && len(t.rsaCTs) < 64 {
		t.rsaCTs = append(t.rsaCTs, append([]byte(nil), resp.Result...))
	}
	return true
}

// check compares a response with what a correct server must answer.  It
// returns "" for a good answer, else the failure kind and a detail.  A
// good ssl or handshake answer updates the client's session ID.
func (c *client) check(it *item, resp *serve.Response, err error) (string, string) {
	if err != nil {
		return failTransport, err.Error()
	}
	switch resp.Status {
	case serve.StatusOK:
	case serve.StatusShed:
		return failShed, resp.ShedReason
	case serve.StatusExpired:
		return failExpired, resp.Error
	default:
		return failError, resp.Error
	}
	if !bytes.Equal(resp.Digest, it.digest[:]) {
		return failMismatch, fmt.Sprintf("digest %x, want %x", resp.Digest, it.digest)
	}
	if it.result != nil && !bytes.Equal(resp.Result, it.result) {
		return failMismatch, fmt.Sprintf("result %x, want %x", resp.Result, it.result)
	}
	switch it.spec.op {
	case serve.OpSSL, serve.OpRecord:
		if resp.Records != it.records {
			return failMismatch, fmt.Sprintf("%d records, want %d", resp.Records, it.records)
		}
	}
	switch it.spec.op {
	case serve.OpSSL, serve.OpHandshake:
		if len(resp.Result) == 0 {
			return failMismatch, "no session ID echoed"
		}
		sid := append([]byte(nil), resp.Result...)
		c.sessions[it.client].Store(&sid)
	case serve.OpRSADecrypt:
		if len(resp.Result) == 0 {
			return failMismatch, "no ciphertext returned"
		}
	}
	return "", ""
}

// closedResult is one closed-loop phase.
type closedResult struct {
	t         *tally
	elapsed   time.Duration // until the last answer
	cpu       time.Duration // process user+sys CPU time
	allocs    uint64
	allocByte uint64
}

func (r *closedResult) add(o closedResult) {
	r.t.add(o.t)
	r.elapsed += o.elapsed
	r.cpu += o.cpu
	r.allocs += o.allocs
	r.allocByte += o.allocByte
}

// closedLoop keeps inflight requests outstanding, cycling through items,
// until d has passed, then waits for the last answers.  With d == 0 it
// sends every item exactly once.
func (c *client) closedLoop(items []item, inflight int, d time.Duration) closedResult {
	t := newTally()
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	a0, b0 := heapAllocs()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := c.conns[w%len(c.conns)]
			for {
				i := int(next.Add(1) - 1)
				if d == 0 && i >= len(items) || d > 0 && !time.Now().Before(deadline) {
					return
				}
				c.do(&items[i%len(items)], conn, t, 0)
			}
		}(w)
	}
	wg.Wait()
	r := closedResult{t: t, elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	a1, b1 := heapAllocs()
	r.allocs, r.allocByte = a1-a0, b1-b0
	return r
}

// openResult is one open-loop phase.
type openResult struct {
	t     *tally
	lat   []float64 // µs from scheduled send to checked answer; +Inf for a failure
	lagUS []float64 // how late each send left the generator
}

// openLoop sends items[i] at start+sched[i] whatever the state of earlier
// requests, so a stall delays everything queued behind it, and times each
// request from its scheduled send time.
func (c *client) openLoop(items []item, sched []int64) openResult {
	r := openResult{t: newTally(), lat: make([]float64, len(items)), lagUS: make([]float64, len(items))}
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	var base int64
	if c.tr != nil {
		base = c.tr.now()
	}
	for i := range items {
		due := start.Add(time.Duration(sched[i]))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r.lagUS[i] = float64(time.Since(due)) / 1e3
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			ok := c.do(&items[i], c.conns[i%len(c.conns)], r.t, base+sched[i])
			r.lat[i] = math.Inf(1)
			if ok {
				r.lat[i] = float64(time.Since(due)) / 1e3
			}
		}(i, due)
	}
	wg.Wait()
	return r
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapAllocs returns the cumulative heap allocation count and bytes.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
