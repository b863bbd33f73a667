package loadgen

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wisp/internal/serve"
)

// retryPolicy tunes client-side robustness for a client.  The zero value
// disables both retries and hedging (single-attempt do).
type retryPolicy struct {
	// MaxAttempts is the total number of submissions per request,
	// including the first; values ≤ 1 disable retries.  Only shed
	// responses are retried: expired and error responses are final.
	MaxAttempts int
	// Backoff is the sleep before the first retry; each further retry
	// doubles it (exponential backoff).  Default 1 ms when retries are
	// enabled.
	Backoff time.Duration
	// MaxBackoff caps the doubled backoff.  0 means no cap.
	MaxBackoff time.Duration
	// Jitter randomizes each backoff by ±Jitter fraction (e.g. 0.2 =
	// ±20%), decorrelating retry storms across clients.
	Jitter float64
	// HedgeAfter enables hedged requests for deadline-bearing ops: if
	// the primary submission has not answered within this duration, a
	// duplicate (flagged Hedge) is launched and the first OK response
	// wins.  0 disables hedging.  Ops are self-verifying round trips, so
	// duplicates are safe.
	HedgeAfter time.Duration
}

// client wraps a transport with the retry and hedging machinery: shed
// responses are retried with exponential backoff + jitter and slow
// deadline-bearing requests are hedged; retries/hedges count how often.
type client struct {
	tr     serve.Transport
	policy retryPolicy

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Uint64
	hedges  atomic.Uint64
}

func newClient(tr serve.Transport) *client {
	return &client{tr: tr, rng: rand.New(rand.NewSource(1))}
}

// setRetryPolicy installs p; seed makes the backoff jitter deterministic.
func (c *client) setRetryPolicy(p retryPolicy, seed int64) {
	c.policy = p
	c.mu.Lock()
	c.rng = rand.New(rand.NewSource(seed))
	c.mu.Unlock()
}

// do submits one offload request, applying the client's retryPolicy:
// shed responses are retried with exponential backoff + jitter up to
// MaxAttempts, and deadline-bearing requests are hedged after HedgeAfter.
// A non-nil Response is returned for every successfully parsed reply,
// including shed/expired/error statuses; the error covers transport and
// decoding failures only.
func (c *client) do(req *serve.Request) (*serve.Response, error) {
	p := c.policy
	if p.MaxAttempts <= 1 && p.HedgeAfter <= 0 {
		return c.tr.RoundTrip(req)
	}
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		r := *req
		r.Attempt = attempt
		resp, err := c.doHedged(&r)
		if err != nil {
			return nil, err
		}
		if resp.Status != serve.StatusShed || attempt >= attempts-1 {
			return resp, nil
		}
		// A request with its own deadline is pointless to retry once the
		// budget is spent; report the shed instead.
		if req.DeadlineUS > 0 && time.Since(start) > time.Duration(req.DeadlineUS)*time.Microsecond {
			return resp, nil
		}
		c.retries.Add(1)
		time.Sleep(c.backoff(attempt))
	}
}

// backoff computes the sleep before retrying attempt (0-based): Backoff
// doubled per retry, capped at MaxBackoff, randomized by ±Jitter.
func (c *client) backoff(attempt int) time.Duration {
	p := c.policy
	d := p.Backoff
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		c.mu.Lock()
		f := 1 + p.Jitter*(2*c.rng.Float64()-1)
		c.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// doHedged runs one attempt, launching a hedged duplicate if the primary
// has not answered within HedgeAfter.  The first OK response wins; if
// neither is OK the primary-ordered first result is returned.
func (c *client) doHedged(req *serve.Request) (*serve.Response, error) {
	if c.policy.HedgeAfter <= 0 || req.DeadlineUS <= 0 {
		return c.tr.RoundTrip(req)
	}
	type result struct {
		resp *serve.Response
		err  error
	}
	ch := make(chan result, 2)
	go func() {
		resp, err := c.tr.RoundTrip(req)
		ch <- result{resp, err}
	}()
	timer := time.NewTimer(c.policy.HedgeAfter)
	defer timer.Stop()
	launched := 1
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timer.C:
		c.hedges.Add(1)
		h := *req
		h.Hedge = true
		if h.ID != "" {
			h.ID += "~h"
		}
		go func() {
			resp, err := c.tr.RoundTrip(&h)
			ch <- result{resp, err}
		}()
		launched = 2
	}
	var first result
	for i := 0; i < launched; i++ {
		r := <-ch
		if r.err == nil && r.resp.Status == serve.StatusOK {
			return r.resp, nil
		}
		if i == 0 {
			first = r
		}
	}
	return first.resp, first.err
}
