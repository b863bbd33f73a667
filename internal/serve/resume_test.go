package serve

import (
	"bytes"
	"testing"
	"time"

	"wisp/internal/hashes"
)

// TestResumedTransactionEndToEnd drives resumable SSL transactions
// through a live gateway and checks the abbreviated path is actually
// taken: sessions resume, digests verify, the session cache records
// hits, and no RSA precompute activity is charged for resumed requests.
func TestResumedTransactionEndToEnd(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, RSABits: 512, Seed: 42})

	payload := bytes.Repeat([]byte("resumable"), 100)
	want := hashes.MD5Sum(payload)

	// First transaction is full (cold client state offers the session the
	// resident record pair established at shard startup, which is cached,
	// so it may already resume — assert only on digest correctness here).
	for i := 0; i < 3; i++ {
		resp := gw.Submit(&Request{ID: "full", Op: OpSSL, Payload: payload})
		if resp.Status != StatusOK {
			t.Fatalf("full #%d: %v %s", i, resp.Status, resp.Error)
		}
		if resp.Resumed {
			t.Fatalf("full #%d: resumed without being asked", i)
		}
		if !bytes.Equal(resp.Digest, want[:]) {
			t.Fatalf("full #%d: digest mismatch", i)
		}
	}

	var resumedOK int
	for i := 0; i < 5; i++ {
		resp := gw.Submit(&Request{ID: "res", Op: OpSSL, Payload: payload, Resume: true})
		if resp.Status != StatusOK {
			t.Fatalf("resume #%d: %v %s", i, resp.Status, resp.Error)
		}
		if !bytes.Equal(resp.Digest, want[:]) {
			t.Fatalf("resume #%d: digest mismatch", i)
		}
		if resp.Resumed {
			resumedOK++
			if resp.EstBaseCycles >= DefaultBaseCosts.Transaction(len(payload)).Total() {
				t.Errorf("resume #%d: resumed estimate %.0f not below full-handshake estimate", i, resp.EstBaseCycles)
			}
		}
	}
	if resumedOK == 0 {
		t.Fatal("no transaction resumed despite Resume: true and a warm session cache")
	}

	stats := gw.Stats()
	if stats.SessionCache == nil {
		t.Fatal("stats missing session cache")
	}
	if stats.SessionCache.Hits == 0 {
		t.Errorf("session cache recorded no hits: %+v", stats.SessionCache)
	}
	if stats.Resumed != uint64(resumedOK) {
		t.Errorf("stats.Resumed = %d, want %d", stats.Resumed, resumedOK)
	}
	if got := stats.PerOp["ssl"].Resumed; got != uint64(resumedOK) {
		t.Errorf("per-op resumed = %d, want %d", got, resumedOK)
	}
}

// TestResumedHandshakeSkipsRSA is the contract the whole feature hangs
// on: once a session is resumable, abbreviated handshakes must not run
// the RSA operation.  RSA work in the serving path flows through each
// shard's precompute engine, so a frozen engine-cache access count across
// resumed handshakes proves no private-key op (cold or cached) ran.
func TestResumedHandshakeSkipsRSA(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, RSABits: 512, Seed: 7})

	// Warm the session state with one explicit full handshake.
	if resp := gw.Submit(&Request{Op: OpHandshake}); resp.Status != StatusOK {
		t.Fatalf("warmup: %v %s", resp.Status, resp.Error)
	}

	engine := gw.shards[0].env.engine
	h0, m0 := engine.CacheStats()
	for i := 0; i < 4; i++ {
		resp := gw.Submit(&Request{Op: OpHandshake, Resume: true})
		if resp.Status != StatusOK {
			t.Fatalf("resume #%d: %v %s", i, resp.Status, resp.Error)
		}
		if !resp.Resumed {
			t.Fatalf("resume #%d: fell back to a full handshake", i)
		}
	}
	h1, m1 := engine.CacheStats()
	if h1 != h0 || m1 != m0 {
		t.Errorf("abbreviated handshakes touched the RSA engine: hits %d->%d, misses %d->%d", h0, h1, m0, m1)
	}
}

// TestResumeDisabled checks a gateway with resumption off serves Resume
// requests as full handshakes and exports no session-cache stats.
func TestResumeDisabled(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, RSABits: 512, SessionCap: -1})
	resp := gw.Submit(&Request{Op: OpHandshake, Resume: true})
	if resp.Status != StatusOK {
		t.Fatalf("submit: %v %s", resp.Status, resp.Error)
	}
	if resp.Resumed {
		t.Error("resumed with the session cache disabled")
	}
	if gw.Stats().SessionCache != nil {
		t.Error("stats export a session cache that does not exist")
	}
}

// TestResumeSessionTTLExpiry checks an expired cached session falls back
// to a full handshake rather than failing.
func TestResumeSessionTTLExpiry(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, RSABits: 512, SessionTTL: time.Nanosecond})
	if resp := gw.Submit(&Request{Op: OpHandshake}); resp.Status != StatusOK {
		t.Fatalf("warmup: %v %s", resp.Status, resp.Error)
	}
	time.Sleep(time.Millisecond)
	resp := gw.Submit(&Request{Op: OpHandshake, Resume: true})
	if resp.Status != StatusOK {
		t.Fatalf("submit: %v %s", resp.Status, resp.Error)
	}
	if resp.Resumed {
		t.Error("resumed an expired session")
	}
}

// TestResumeValidation checks Resume is rejected on ops with no
// handshake.
func TestResumeValidation(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, RSABits: 512})
	resp := gw.Submit(&Request{Op: OpMD5, Payload: []byte("x"), Resume: true})
	if resp.Status != StatusError {
		t.Fatalf("status = %v, want error", resp.Status)
	}
}
