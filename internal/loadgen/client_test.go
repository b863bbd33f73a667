package loadgen

import (
	"strings"
	"sync"
	"testing"
	"time"

	"wisp/internal/serve"
)

// stubGateway is an in-process serve.Transport answering from a canned
// handler, for exercising the client's retry and hedging machinery
// without a real gateway.  Each round trip hands the handler its own
// copy of the request, as a network hop would.
type stubGateway func(req *serve.Request) *serve.Response

func (h stubGateway) RoundTrip(req *serve.Request) (*serve.Response, error) {
	r := *req
	return h(&r), nil
}
func (stubGateway) Stats() (*serve.Stats, error) { return &serve.Stats{}, nil }
func (stubGateway) Healthy() bool                { return true }
func (stubGateway) Close() error                 { return nil }

// TestClientRetryBackoff sheds the first two attempts and expects the
// client to re-submit with incrementing Attempt ordinals, then succeed.
func TestClientRetryBackoff(t *testing.T) {
	var mu sync.Mutex
	var attempts []int
	c := newClient(stubGateway(func(req *serve.Request) *serve.Response {
		mu.Lock()
		attempts = append(attempts, req.Attempt)
		n := len(attempts)
		mu.Unlock()
		if n <= 2 {
			return &serve.Response{ID: req.ID, Op: req.Op, Status: serve.StatusShed, Error: "queue full", Shard: 0}
		}
		return &serve.Response{ID: req.ID, Op: req.Op, Status: serve.StatusOK, Shard: 0}
	}))
	c.setRetryPolicy(retryPolicy{MaxAttempts: 4, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Jitter: 0.2}, 7)
	resp, err := c.do(&serve.Request{ID: "r1", Op: serve.OpMD5, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != serve.StatusOK {
		t.Fatalf("status %s after retries", resp.Status)
	}
	mu.Lock()
	got := append([]int(nil), attempts...)
	mu.Unlock()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("attempt ordinals on the wire = %v, want [0 1 2]", got)
	}
	if c.retries.Load() != 2 {
		t.Errorf("client retries = %d, want 2", c.retries.Load())
	}
}

// TestClientRetryExhaustion keeps shedding and expects the final shed
// response back after MaxAttempts submissions.
func TestClientRetryExhaustion(t *testing.T) {
	var n int
	var mu sync.Mutex
	c := newClient(stubGateway(func(req *serve.Request) *serve.Response {
		mu.Lock()
		n++
		mu.Unlock()
		return &serve.Response{Op: req.Op, Status: serve.StatusShed, Error: "queue full"}
	}))
	c.setRetryPolicy(retryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}, 7)
	resp, err := c.do(&serve.Request{Op: serve.OpMD5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != serve.StatusShed {
		t.Errorf("status %s, want shed after exhaustion", resp.Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if n != 3 {
		t.Errorf("server saw %d submissions, want 3", n)
	}
}

// TestClientHedging delays the primary response long enough for the
// hedge timer to fire and expects the hedged duplicate's answer to win.
func TestClientHedging(t *testing.T) {
	c := newClient(stubGateway(func(req *serve.Request) *serve.Response {
		if !req.Hedge {
			time.Sleep(300 * time.Millisecond)
		}
		return &serve.Response{ID: req.ID, Op: req.Op, Status: serve.StatusOK}
	}))
	c.setRetryPolicy(retryPolicy{HedgeAfter: 20 * time.Millisecond}, 7)
	start := time.Now()
	resp, err := c.do(&serve.Request{ID: "h1", Op: serve.OpMD5, DeadlineUS: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != serve.StatusOK || !strings.HasSuffix(resp.ID, "~h") {
		t.Errorf("winning response %+v, want the hedged duplicate", resp)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("hedged call took %v — hedge did not cut the tail", elapsed)
	}
	if c.hedges.Load() != 1 {
		t.Errorf("hedges = %d, want 1", c.hedges.Load())
	}
}

// TestClientNoHedgeWithoutDeadline: hedging is only for deadline-bearing
// requests.
func TestClientNoHedgeWithoutDeadline(t *testing.T) {
	c := newClient(stubGateway(func(req *serve.Request) *serve.Response {
		time.Sleep(60 * time.Millisecond)
		return &serve.Response{Op: req.Op, Status: serve.StatusOK}
	}))
	c.setRetryPolicy(retryPolicy{HedgeAfter: 10 * time.Millisecond}, 7)
	if _, err := c.do(&serve.Request{Op: serve.OpMD5}); err != nil {
		t.Fatal(err)
	}
	if c.hedges.Load() != 0 {
		t.Errorf("hedged a deadline-less request (%d hedges)", c.hedges.Load())
	}
}
