package main

import (
	"crypto/md5"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"wisp/internal/serve"
	"wisp/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 99); !math.IsInf(got, 1) {
		t.Errorf("a failure must count as over every limit, p99 = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	if got := latencyWindows(999); got != 1 {
		t.Errorf("latencyWindows(999) = %d, want 1", got)
	}
	if got := latencyWindows(4000); got != 3 {
		t.Errorf("latencyWindows(4000) = %d, want 3", got)
	}
	if got := latencyWindows(1 << 20); got != maxWindows {
		t.Errorf("latencyWindows(1M) = %d, want %d", got, maxWindows)
	}
	// Three windows; a stall confined to the first moves only that
	// window's p99, so the median over windows ignores it.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 100
	}
	for i := 0; i < 100; i++ {
		xs[i] = 1e6
	}
	if got := windowedPercentile(xs, 99); got != 100 {
		t.Errorf("windowed p99 = %v, want 100", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) that overlap, so
	// together they cover [10,60); a has a child c [15,25).
	spans := []span{
		{Layer: "root", Start: 0, End: 100, Parent: -1},
		{Layer: "a", Start: 10, End: 40, Parent: 0},
		{Layer: "b", Start: 30, End: 60, Parent: 0},
		{Layer: "c", Start: 15, End: 25, Parent: 1},
		{Layer: "d", Start: 90, End: 120, Parent: 0}, // clipped to its parent
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Layer, got[i], want[i])
		}
	}

	// A request's tree: the layer self times and the queue and service
	// leaves add up to the client's round trip.
	r := &reqTrace{rtStart: 1000, rtEnd: 9000, queueUS: 2, serviceUS: 3}
	r.subStart.Store(2000)
	r.subEnd.Store(8000)
	self := layerSelf(r.spans(false))
	if self[layerWire] != 2000 || self[layerQueue] != 2000 || self[layerService] != 3000 || self[layerServe] != 1000 {
		t.Errorf("layer self times %v", self)
	}
}

// stubHandler is a wire.Handler serving md5 ops one at a time.  It stalls
// on the first request when stall is set, and corrupts every digest when
// corrupt is set.
type stubHandler struct {
	mu      sync.Mutex
	stall   time.Duration
	corrupt bool
}

func (h *stubHandler) Preadmit(serve.Op, string, int) (int64, *serve.Response) { return 0, nil }
func (h *stubHandler) CancelPreadmit(string)                                   {}
func (h *stubHandler) BacklogUS() int64                                        { return 0 }
func (h *stubHandler) StatsJSON() ([]byte, error)                              { return []byte("{}"), nil }
func (h *stubHandler) NoteRejectedDecode()                                     {}

func (h *stubHandler) Submit(req *serve.Request) *serve.Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	time.Sleep(h.stall)
	h.stall = 0
	sum := md5.Sum(req.Payload)
	if h.corrupt {
		sum[0] ^= 1
	}
	return &serve.Response{ID: req.ID, Op: req.Op, Status: serve.StatusOK, Digest: sum[:], Result: sum[:]}
}

// stubClient serves h on a loopback wire listener and returns a client of
// it with n md5 items.
func stubClient(t *testing.T, h *stubHandler, n int) (*client, []item) {
	t.Helper()
	srv := wire.NewServer(h, wire.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	tr, err := wire.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tr.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	w := &workload{name: "stub", deck: []opSpec{{op: serve.OpMD5, size: 64}}, clients: 4}
	g := newGenerator(w, 1)
	return newClient(g, []*wire.Transport{tr}), g.stream(n)
}

func TestOpenLoopCountsStall(t *testing.T) {
	const n, gap, stall = 40, time.Millisecond, 80 * time.Millisecond
	c, items := stubClient(t, &stubHandler{stall: stall}, n)
	sched := make([]int64, n)
	for i := range sched {
		sched[i] = int64(i) * int64(gap)
	}
	r := c.openLoop(items, sched)
	if r.t.ok != n {
		t.Fatalf("%d of %d ok: %v", r.t.ok, n, r.t.firstErrors)
	}
	// Every request due while the first one stalled waits for the stall
	// to end; its latency counts from its scheduled send time, not from
	// when the server got to it.
	for i := 1; i < n; i++ {
		due := time.Duration(sched[i])
		if due >= stall/2 {
			break
		}
		if floor := float64(stall-due) / 1e3; r.lat[i] < floor {
			t.Errorf("request %d due at %v: latency %.0f us, want ≥ %.0f us", i, due, r.lat[i], floor)
		}
	}
}

func TestCorruptDigestFails(t *testing.T) {
	c, items := stubClient(t, &stubHandler{corrupt: true}, 3)
	r := c.closedLoop(items, 1, 0)
	if r.t.ok != 0 || r.t.fails[failMismatch] != 3 {
		t.Fatalf("ok %d, mismatches %d; want 0 and 3", r.t.ok, r.t.fails[failMismatch])
	}
	res := finish(io.Discard, r.t, newTally(), nil)
	if res.Correct || res.Failed != 3 || res.Attempted != 3 {
		t.Errorf("result %+v, want incorrect with 3 of 3 failed", res)
	}
}
