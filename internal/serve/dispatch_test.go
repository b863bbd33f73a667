package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// slowPayload is an ssl payload whose transaction holds a shard long
// enough to be observed busy and to queue work behind it: the largest
// legal payload, about 160 ms of 3DES-CBC and HMAC records on the 2-vCPU
// test host.
func slowPayload() []byte { return make([]byte, MaxPayload) }

// waitBusy polls until some shard has a nonzero backlog cost (a task is
// queued or in service), failing the test after 2 s.
func waitBusy(t *testing.T, gw *Gateway) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, sh := range gw.shards {
			if sh.cost.Load() > 0 {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no shard ever became busy")
}

// TestNoHeadOfLineBlockingWhileIdle is the regression test for the
// round-robin dispatch bug: with an expensive SSL transaction occupying
// one shard, deadline-bearing record ops must be routed to the idle
// shard — zero deadline sheds, zero sheds-while-idle, everything OK.
func TestNoHeadOfLineBlockingWhileIdle(t *testing.T) {
	gw := testGateway(t, Config{Shards: 2, Seed: 31})
	slow := slowPayload()
	done := make(chan *Response, 1)
	go func() { done <- gw.Submit(&Request{Op: OpSSL, Payload: slow}) }()
	waitBusy(t, gw)

	const n = 12
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = gw.Submit(&Request{
				Op:         OpRecord,
				Payload:    []byte(fmt.Sprintf("record %d", i)),
				DeadlineUS: 2_000_000,
			})
		}(i)
	}
	wg.Wait()
	for i, resp := range resps {
		if resp.Status != StatusOK {
			t.Errorf("record %d: status %s (%s) — head-of-line blocked", i, resp.Status, resp.Error)
		}
	}
	if r := <-done; r.Status != StatusOK {
		t.Fatalf("slow op: %s (%s)", r.Status, r.Error)
	}
	stats := gw.Stats()
	if stats.ShedByReason["deadline"] != 0 {
		t.Errorf("%d deadline sheds with an idle shard available", stats.ShedByReason["deadline"])
	}
	if stats.ShedWhileIdle != 0 {
		t.Errorf("shed_while_idle = %d, want 0 under cost dispatch", stats.ShedWhileIdle)
	}
	if stats.Expired != 0 {
		t.Errorf("%d expirations with an idle shard available", stats.Expired)
	}
}

// servingShard polls until exactly one shard carries backlog cost with
// every queue empty — the shard serving the lone submitted op — and the
// answer holds across two samples (a steal in progress moves the charge
// between shards).  Fails the test after 2 s.
func servingShard(t *testing.T, gw *Gateway) *shard {
	t.Helper()
	sample := func() *shard {
		var busy *shard
		for _, sh := range gw.shards {
			if gw.metrics.queueDepth[sh.id].Load() != 0 {
				return nil
			}
			if sh.cost.Load() > 0 {
				if busy != nil {
					return nil
				}
				busy = sh
			}
		}
		return busy
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if a := sample(); a != nil {
			time.Sleep(2 * time.Millisecond)
			if sample() == a {
				return a
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no shard ever settled into serving the slow op")
	return nil
}

// TestWorkStealing forces an imbalance through the dispatcher's own
// signal: once a slow transaction is in service, the other (idle) shard's
// backlog is mispriced as enormous, so cost dispatch queues every record
// op behind the slow one.  The idle shard must steal them; the steal
// counters must agree between the gateway-wide total and the per-op
// breakdown.
func TestWorkStealing(t *testing.T) {
	gw := testGateway(t, Config{Shards: 2, BatchMax: 1, Seed: 33})
	slow := slowPayload()
	done := make(chan *Response, 1)
	go func() { done <- gw.Submit(&Request{Op: OpSSL, Payload: slow}) }()
	idle := gw.shards[1-servingShard(t, gw).id]
	const mispriced = int64(1) << 40
	idle.cost.Add(mispriced)
	defer idle.cost.Add(-mispriced)

	const n = 8
	var wg sync.WaitGroup
	stolen := 0
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := gw.Submit(&Request{Op: OpRecord, Payload: []byte(fmt.Sprintf("steal %d", i))})
			if resp.Status != StatusOK {
				t.Errorf("record %d: %s (%s)", i, resp.Status, resp.Error)
			}
			if resp.Stolen {
				mu.Lock()
				stolen++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	r := <-done
	if r.Status != StatusOK {
		t.Fatalf("slow op: %s (%s)", r.Status, r.Error)
	}
	if r.Stolen {
		stolen++ // the long op can itself be stolen before its shard dequeues it
	}

	stats := gw.Stats()
	if stats.Steals == 0 {
		t.Error("no steals recorded — idle shard did not take queued work")
	}
	if uint64(stolen) != stats.Steals {
		t.Errorf("responses report %d stolen, stats report %d", stolen, stats.Steals)
	}
	var perOpSteals, perOpRedirects, perOpRetries uint64
	for _, os := range stats.PerOp {
		perOpSteals += os.Steals
		perOpRedirects += os.Redirects
		perOpRetries += os.Retries
	}
	if perOpSteals != stats.Steals || perOpRedirects != stats.Redirects || perOpRetries != stats.Retries {
		t.Errorf("per-op sums (steals %d, redirects %d, retries %d) disagree with totals (%d, %d, %d)",
			perOpSteals, perOpRedirects, perOpRetries, stats.Steals, stats.Redirects, stats.Retries)
	}
}

// TestPerOpCostPricing checks that shards price a pending handshake and
// a pending record op differently: after serving both classes, the SSL
// EWMA must exceed the digest EWMA, and the backlog cost must return to
// zero once the shard is idle.
func TestPerOpCostPricing(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, Seed: 41})
	for i := 0; i < 5; i++ {
		if resp := gw.Submit(&Request{Op: OpMD5, Payload: []byte("cheap")}); resp.Status != StatusOK {
			t.Fatalf("md5: %s", resp.Status)
		}
	}
	if resp := gw.Submit(&Request{Op: OpSSL, Payload: make([]byte, 16<<10)}); resp.Status != StatusOK {
		t.Fatalf("ssl: %s", resp.Status)
	}
	sh := gw.shards[0]
	if ssl, md5 := sh.opCost(OpSSL), sh.opCost(OpMD5); ssl <= md5 {
		t.Errorf("per-op pricing inverted: ssl %.0fµs ≤ md5 %.0fµs", ssl, md5)
	}
	if c := sh.cost.Load(); c != 0 {
		t.Errorf("idle shard backlog cost = %dµs, want 0", c)
	}
	stats := gw.Stats()
	if stats.OpCostUS[string(OpSSL)] <= stats.OpCostUS[string(OpMD5)] {
		t.Errorf("op_cost_us gauge inverted: %+v", stats.OpCostUS)
	}
}

// TestDispatchDeterministicSingleShard runs the same seeded request
// sequence through two single-shard gateways and expects identical
// responses — the `-seed` determinism contract at workers=1.
func TestDispatchDeterministicSingleShard(t *testing.T) {
	run := func() []*Response {
		gw := testGateway(t, Config{Shards: 1, Seed: 47})
		var out []*Response
		for i := 0; i < 6; i++ {
			op := AllOps[i%len(AllOps)]
			out = append(out, gw.Submit(&Request{Op: op, Payload: []byte(fmt.Sprintf("det %d", i)), RecordSize: 8}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Status != b[i].Status || a[i].Shard != b[i].Shard ||
			string(a[i].Digest) != string(b[i].Digest) || string(a[i].Result) != string(b[i].Result) {
			t.Errorf("response %d diverged between identical seeded runs", i)
		}
	}
}
