package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wisp/internal/hashes"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Errorf("min/max = %v/%v, want 1/1000", s.Min, s.Max)
	}
	// Exponential buckets are coarse: accept the right bucket, not the
	// exact rank.
	if s.P50 < 256 || s.P50 > 1000 {
		t.Errorf("p50 = %v, want within [256, 1000]", s.P50)
	}
	if s.P99 < 512 || s.P99 > 1000 {
		t.Errorf("p99 = %v, want within [512, 1000]", s.P99)
	}
	if empty := (&Histogram{}).Snapshot(); empty.Count != 0 || empty.P50 != 0 {
		t.Errorf("empty snapshot = %+v", empty)
	}
}

// TestHistogramSubMicrosecond pins the dedicated [0,1) µs bucket:
// Microseconds() truncation yields 0 for fast ops, which must not be
// folded into the [1,2) bucket or pull quantiles above the observed max.
func TestHistogramSubMicrosecond(t *testing.T) {
	var h Histogram
	for i := 0; i < 8; i++ {
		h.Observe(0)
	}
	h.Observe(0.5)
	h.Observe(3)
	s := h.Snapshot()
	if s.Count != 10 || s.Min != 0 || s.Max != 3 {
		t.Fatalf("count/min/max = %d/%v/%v, want 10/0/3", s.Count, s.Min, s.Max)
	}
	if s.P50 >= 1 {
		t.Errorf("p50 = %v for a mostly sub-µs population, want < 1", s.P50)
	}
	if s.P99 < 2 || s.P99 > 3 {
		t.Errorf("p99 = %v, want within [2, 3]", s.P99)
	}

	// All-zero population: every quantile must clamp to 0, not report
	// half a microsecond nobody observed.
	var z Histogram
	z.Observe(0)
	z.Observe(0)
	z.Observe(0)
	if zs := z.Snapshot(); zs.P50 != 0 || zs.P99 != 0 || zs.Max != 0 {
		t.Errorf("all-zero snapshot = %+v, want zero quantiles", zs)
	}

	// Boundary: 1 µs belongs to bucket [1,2), not the sub-µs bucket.
	var b Histogram
	b.Observe(1)
	if bs := b.Snapshot(); bs.P50 != 1 {
		t.Errorf("single 1µs observation p50 = %v, want 1 (clamped to max)", bs.P50)
	}
}

// testGateway builds a small gateway that shuts down with the test.
func testGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := gw.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return gw
}

// TestGatewayServesEveryOp round-trips each primitive through a live
// shard and checks the self-verified digest.
func TestGatewayServesEveryOp(t *testing.T) {
	gw := testGateway(t, Config{Shards: 2, Seed: 7})
	payload := []byte("the quick brown fox jumps over the lazy dog")
	want := hashes.MD5Sum(payload)
	for _, op := range AllOps {
		resp := gw.Submit(&Request{Op: op, Payload: payload, RecordSize: 16})
		if resp.Status != StatusOK {
			t.Fatalf("%s: status %s (%s)", op, resp.Status, resp.Error)
		}
		if !bytes.Equal(resp.Digest, want[:]) {
			t.Errorf("%s: digest mismatch", op)
		}
		if resp.ServiceUS < 0 || resp.QueueUS < 0 {
			t.Errorf("%s: negative timing %+v", op, resp)
		}
		switch op {
		case OpSSL:
			if resp.Records != 3 {
				t.Errorf("ssl: %d records, want 3 (44 bytes / 16)", resp.Records)
			}
			if resp.EstBaseCycles <= resp.EstOptCycles || resp.EstOptCycles <= 0 {
				t.Errorf("ssl: estimates base=%v opt=%v", resp.EstBaseCycles, resp.EstOptCycles)
			}
		case OpMD5:
			if !bytes.Equal(resp.Result, want[:]) {
				t.Errorf("md5: wrong result")
			}
		}
	}
}

func TestGatewayRejectsBadRequests(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1})
	for _, req := range []*Request{
		{Op: "no-such-op"},
		{Op: OpMD5, Payload: make([]byte, MaxPayload+1)},
		{Op: OpMD5, DeadlineUS: -1},
	} {
		if resp := gw.Submit(req); resp.Status != StatusError {
			t.Errorf("%+v: status %s, want error", req.Op, resp.Status)
		}
	}
	if s := gw.Stats(); s.Errors != 3 {
		t.Errorf("stats errors = %d, want 3", s.Errors)
	}
}

// TestDeadlineExpiry parks a short-deadline request behind a long SSL
// transaction and expects deadline-aware rejection at dequeue.
func TestDeadlineExpiry(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, BatchMax: 1, Seed: 9})
	slow := slowPayload()
	done := make(chan *Response, 1)
	go func() { done <- gw.Submit(&Request{Op: OpSSL, Payload: slow}) }()
	time.Sleep(10 * time.Millisecond) // let the worker dequeue the slow op

	resp := gw.Submit(&Request{Op: OpMD5, Payload: []byte("x"), DeadlineUS: 1})
	if resp.Status != StatusExpired && resp.Status != StatusShed {
		t.Fatalf("status %s (%s), want expired or shed", resp.Status, resp.Error)
	}
	if r := <-done; r.Status != StatusOK {
		t.Fatalf("slow op: %s (%s)", r.Status, r.Error)
	}
	stats := gw.Stats()
	if stats.Expired+stats.ShedByReason["deadline"] == 0 {
		t.Errorf("no deadline rejection recorded: %+v", stats)
	}
}

// TestRecordBatching queues record ops behind a long transaction and
// expects them to be served as one same-op batch.
func TestRecordBatching(t *testing.T) {
	gw := testGateway(t, Config{Shards: 1, Seed: 17})
	slow := slowPayload()
	done := make(chan *Response, 1)
	go func() { done <- gw.Submit(&Request{Op: OpSSL, Payload: slow}) }()
	time.Sleep(10 * time.Millisecond)

	const n = 8
	var wg sync.WaitGroup
	batches := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := gw.Submit(&Request{Op: OpRecord, Payload: []byte(fmt.Sprintf("record %d", i))})
			if resp.Status != StatusOK {
				t.Errorf("record %d: %s (%s)", i, resp.Status, resp.Error)
			}
			batches[i] = resp.Batch
		}(i)
	}
	wg.Wait()
	if r := <-done; r.Status != StatusOK {
		t.Fatalf("slow op: %s (%s)", r.Status, r.Error)
	}
	max := 0
	for _, b := range batches {
		if b > max {
			max = b
		}
	}
	if max < 2 {
		t.Errorf("max record batch = %d, want ≥ 2 (batching not engaging)", max)
	}
	if s := gw.Stats(); s.BatchSize.Max < 2 {
		t.Errorf("batch histogram max = %v, want ≥ 2", s.BatchSize.Max)
	}
}

// TestDrain verifies graceful drain: queued work completes, later
// submissions are shed with the draining reason, Drain is idempotent.
func TestDrain(t *testing.T) {
	gw, err := NewGateway(Config{Shards: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	oks := make([]Status, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oks[i] = gw.Submit(&Request{Op: OpRecord, Payload: []byte("drain me")}).Status
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, s := range oks {
		if s != StatusOK && s != StatusShed {
			t.Errorf("request %d: status %s", i, s)
		}
	}
	if resp := gw.Submit(&Request{Op: OpMD5}); resp.Status != StatusShed || !strings.Contains(resp.Error, "draining") {
		t.Errorf("post-drain submit: %+v", resp)
	}
	if err := gw.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
	if gw.Stats().ShedByReason["draining"] == 0 {
		t.Error("draining shed not counted")
	}
}

// TestHTTPEndpoints exercises the admin listener over a real socket:
// /stats in both formats, the pprof index, and /healthz while serving
// and (503) once draining.
func TestHTTPEndpoints(t *testing.T) {
	gw, err := NewGateway(Config{Shards: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	admin := NewAdmin(func() TextStats { return gw.Stats() }, gw.Draining)
	addr, err := admin.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- admin.Serve() }()
	t.Cleanup(func() {
		if err := admin.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	base := "http://" + addr.String()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, body)
	}
	if resp := gw.Submit(&Request{ID: "e-1", Op: OpHMACSHA1, Payload: []byte("endpoint check")}); resp.Status != StatusOK {
		t.Fatalf("submit: %+v", resp)
	}

	code, body := get("/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var stats Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 1 || stats.Shards != 1 {
		t.Errorf("stats %+v", stats)
	}

	_, text := get("/stats?format=text")
	for _, want := range []string{"wispd_requests_total 1", "wispd_shed_total{reason=\"queue-full\"}", "wispd_op_latency_us{op=\"hmac-sha1\",q=\"0.99\"}"} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q", want)
		}
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index = %d, want 200", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("healthz while draining = %d %q, want 503 draining", code, body)
	}
}

// TestDrainRacesSubmit submits from several goroutines while Drain runs,
// over many gateway lifetimes — the shape of a SIGTERM landing on a
// daemon with live traffic.  Every Submit must answer OK or shed
// "draining", and Drain must return without the in-flight accounting
// tripping over Submits that arrive while it waits.
func TestDrainRacesSubmit(t *testing.T) {
	lifetimes := 200
	if testing.Short() {
		lifetimes = 20
	}
	for life := 0; life < lifetimes; life++ {
		gw, err := NewGateway(Config{Shards: 1, Seed: 29, SessionCap: -1})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp := gw.Submit(&Request{Op: OpMD5, Payload: []byte("race")})
					if resp.Status != StatusOK && resp.ShedReason != "draining" {
						t.Errorf("submit during drain: %s (%s)", resp.Status, resp.Error)
						return
					}
				}
			}()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = gw.Drain(ctx)
		cancel()
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("lifetime %d: drain: %v", life, err)
		}
	}
}

// TestRequestJSONRoundTrip pins Request's JSON field names.
func TestRequestJSONRoundTrip(t *testing.T) {
	req := &Request{ID: "r1", Op: Op3DES, Payload: []byte{1, 2, 3}, Key: make([]byte, 24), DeadlineUS: 500}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || !bytes.Equal(got.Payload, req.Payload) || got.DeadlineUS != 500 {
		t.Errorf("round trip %+v != %+v", got, req)
	}
	if !strings.Contains(string(data), `"op":"3des"`) {
		t.Errorf("wire format changed: %s", data)
	}
}
