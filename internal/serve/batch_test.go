package serve

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"wisp/internal/hashes"
)

// rsaBurstBehindSlowOp occupies the single shard with a long SSL
// transaction, queues n RSA decrypts behind it (so the next drain finds
// a same-op group — on one CPU a burst against an idle shard is served
// task-by-task and never batches), and verifies every response.
func rsaBurstBehindSlowOp(t *testing.T, gw *Gateway, n int) {
	t.Helper()
	slow := make([]byte, 64<<10)
	done := make(chan *Response, 1)
	go func() { done <- gw.Submit(&Request{Op: OpSSL, Payload: slow}) }()
	waitBusy(t, gw)

	var wg sync.WaitGroup
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = gw.Submit(&Request{Op: OpRSADecrypt, Payload: []byte(fmt.Sprintf("rsa payload %d", i))})
		}(i)
	}
	wg.Wait()
	if r := <-done; r.Status != StatusOK {
		t.Fatalf("slow op: %s (%s)", r.Status, r.Error)
	}
	for i, resp := range resps {
		if resp.Status != StatusOK {
			t.Fatalf("op %d: status %s (%s)", i, resp.Status, resp.Error)
		}
		digest := hashes.MD5Sum([]byte(fmt.Sprintf("rsa payload %d", i)))
		if !bytes.Equal(resp.Digest, digest[:]) {
			t.Fatalf("op %d: digest mismatch", i)
		}
		if len(resp.Result) == 0 {
			t.Fatalf("op %d: empty wrapped result", i)
		}
	}
}

// TestBatchedRSADispatch checks that a same-op decrypt group drained in
// one cycle is upgraded to the batched engine: digests all verify, the
// batched counter moves, and no fused call exceeds BatchWidth lanes.
func TestBatchedRSADispatch(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, BatchWidth: 4, Seed: 41})
	rsaBurstBehindSlowOp(t, gw, 12)
	stats := gw.Stats()
	if stats.RSAOpsBatched == 0 {
		t.Fatal("no decrypts served through the batched engine with a queued same-op group")
	}
	if stats.RSABatchWidth.Max > 4 {
		t.Fatalf("batched call with %.0f lanes exceeds BatchWidth 4", stats.RSABatchWidth.Max)
	}
	if got := stats.RSAOpsBatched + stats.RSAOpsScalar; got != 12 {
		t.Fatalf("batched+scalar = %d, want 12", got)
	}
}

// TestScalarRSADispatch pins BatchWidth to 1 — the A side of the
// serve-bench A/B — and verifies fusion never triggers even when a
// same-op group is available.
func TestScalarRSADispatch(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, BatchWidth: 1, Seed: 41})
	rsaBurstBehindSlowOp(t, gw, 12)
	stats := gw.Stats()
	if stats.RSAOpsBatched != 0 {
		t.Fatalf("%d ops batched with BatchWidth 1", stats.RSAOpsBatched)
	}
	if stats.RSAOpsScalar != 12 {
		t.Fatalf("scalar count %d, want 12", stats.RSAOpsScalar)
	}
}

// TestGatherAbortsOnDrain is the shutdown-latency regression test for
// the gather window: a lone decrypt enters a multi-second gather wait,
// and Drain must complete almost immediately instead of sitting out the
// window (no straggler can arrive once admission is closed).
func TestGatherAbortsOnDrain(t *testing.T) {
	gw, err := NewGateway(Config{Shards: 1, BatchWidth: 4, BatchGatherUS: 5_000_000, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Response, 1)
	go func() { done <- gw.Submit(&Request{Op: OpRSADecrypt, Payload: []byte("lone decrypt")}) }()
	// Wait for the task to be in service (the gather wait) rather than
	// queued, so the drain genuinely races the window.
	waitBusy(t, gw)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v: gather window not aborted (window is 5s)", elapsed)
	}
	if r := <-done; r.Status != StatusOK {
		t.Fatalf("gathered decrypt: %s (%s)", r.Status, r.Error)
	}
}

// TestRuntimeBatchKnobs flips the live width/gather knobs and checks the
// serving path follows: width 1 keeps a queued group scalar, raising it
// to 4 at runtime engages the batched engine for the next burst.
func TestRuntimeBatchKnobs(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, BatchWidth: 1, Seed: 41})
	rsaBurstBehindSlowOp(t, gw, 8)
	if s := gw.Stats(); s.RSAOpsBatched != 0 {
		t.Fatalf("%d ops batched with live width 1", s.RSAOpsBatched)
	}

	gw.SetBatchWidth(4)
	gw.SetBatchGatherUS(1000)
	if gw.BatchWidth() != 4 || gw.BatchGatherUS() != 1000 {
		t.Fatalf("knobs read back %d/%d, want 4/1000", gw.BatchWidth(), gw.BatchGatherUS())
	}
	rsaBurstBehindSlowOp(t, gw, 8)
	s := gw.Stats()
	if s.RSAOpsBatched == 0 {
		t.Fatal("no decrypts batched after SetBatchWidth(4)")
	}
	if s.BatchWidth != 4 || s.BatchGatherUS != 1000 {
		t.Fatalf("stats gauges %d/%d, want 4/1000", s.BatchWidth, s.BatchGatherUS)
	}
	gw.SetBatchWidth(0)
	if gw.BatchWidth() != 1 {
		t.Fatalf("SetBatchWidth(0) read back %d, want clamp to 1", gw.BatchWidth())
	}
}
