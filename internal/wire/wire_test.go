package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wisp/internal/hashes"
	"wisp/internal/serve"
)

// splitFrame strips the uvarint length prefix from an encoded frame,
// returning the header and the trailing body bytes.
func splitFrame(t *testing.T, frame []byte) (hdr, body []byte) {
	t.Helper()
	n, used := binary.Uvarint(frame)
	if used <= 0 {
		t.Fatalf("bad frame length prefix")
	}
	if int(n) > len(frame)-used {
		t.Fatalf("frame length %d exceeds buffer %d", n, len(frame)-used)
	}
	return frame[used : used+int(n)], frame[used+int(n):]
}

func TestRequestHeaderRoundTrip(t *testing.T) {
	req := &serve.Request{
		ID:         "req-42",
		Op:         serve.OpSSL,
		Payload:    []byte("sixteen byte pay"),
		Key:        []byte{1, 2, 3, 4},
		RecordSize: 512,
		DeadlineUS: 250_000,
		Resume:     true,
		Attempt:    3,
		Hedge:      true,
		ClientID:   "tenant-a",
	}
	var enc Encoder
	frame, err := enc.Request(nil, 77, req)
	if err != nil {
		t.Fatal(err)
	}
	hdr, body := splitFrame(t, frame)
	if !bytes.Equal(body, req.Payload) {
		t.Errorf("body = %q, want payload", body)
	}

	var dec Decoder
	var h ReqHead
	if err := dec.ParseRequest(hdr, &h); err != nil {
		t.Fatal(err)
	}
	if h.Seq != 77 || h.ID != req.ID || h.Op != req.Op || h.ClientID != req.ClientID {
		t.Errorf("head = %+v", h)
	}
	if !h.Resume || !h.Hedge || h.Attempt != 3 || h.RecordSize != 512 || h.DeadlineUS != 250_000 {
		t.Errorf("head fields = %+v", h)
	}
	if !bytes.Equal(h.Key, req.Key) {
		t.Errorf("key = %v, want %v", h.Key, req.Key)
	}
	if h.PayloadLen != len(req.Payload) {
		t.Errorf("payload len = %d, want %d", h.PayloadLen, len(req.Payload))
	}
	if h.ClientKey() != "tenant-a" {
		t.Errorf("client key = %q", h.ClientKey())
	}
	if (&ReqHead{}).ClientKey() != "-" {
		t.Error("anonymous client key should be -")
	}
}

func TestResponseHeaderRoundTrip(t *testing.T) {
	resp := &serve.Response{
		ID:            "req-42",
		Op:            serve.OpRecord,
		Status:        serve.StatusOK,
		Digest:        []byte("0123456789abcdef"),
		Result:        []byte("result bytes"),
		Records:       9,
		Shard:         -1,
		Batch:         4,
		Stolen:        true,
		Resumed:       true,
		ShedReason:    "some-novel-reason",
		Error:         "partial failure",
		QueueUS:       123,
		ServiceUS:     4567,
		EstBaseCycles: 1.5e8,
		EstOptCycles:  2.5e6,
	}
	var enc Encoder
	frame, err := enc.Response(nil, 99, resp, 31_000)
	if err != nil {
		t.Fatal(err)
	}
	hdr, body := splitFrame(t, frame)

	var got serve.Response
	seq, dLen, rLen, err := ParseResponse(hdr, &got)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 99 || dLen != len(resp.Digest) || rLen != len(resp.Result) {
		t.Fatalf("seq/dLen/rLen = %d/%d/%d", seq, dLen, rLen)
	}
	if !bytes.Equal(body[:dLen], resp.Digest) || !bytes.Equal(body[dLen:], resp.Result) {
		t.Error("body digest/result mismatch")
	}
	if got.ID != resp.ID || got.Op != resp.Op || got.Status != resp.Status || got.Error != resp.Error {
		t.Errorf("got = %+v", got)
	}
	if got.Records != 9 || got.Shard != -1 || got.Batch != 4 || !got.Stolen || !got.Resumed {
		t.Errorf("got fields = %+v", got)
	}
	if got.ShedReason != resp.ShedReason {
		t.Errorf("reason = %q, want %q", got.ShedReason, resp.ShedReason)
	}
	if got.QueueUS != 123 || got.ServiceUS != 4567 {
		t.Errorf("timings = %d/%d", got.QueueUS, got.ServiceUS)
	}
	if got.EstBaseCycles != resp.EstBaseCycles || got.EstOptCycles != resp.EstOptCycles {
		t.Errorf("estimates = %v/%v", got.EstBaseCycles, got.EstOptCycles)
	}
	if got.LoadUS != 31_000 {
		t.Errorf("loadUS = %d, want 31000", got.LoadUS)
	}
}

// TestResponseKnownReasonsIntern checks every built-in shed reason decodes
// to the interned constant (one code byte on the wire, no string alloc).
func TestResponseKnownReasonsIntern(t *testing.T) {
	var enc Encoder
	for reason := range reasonCode {
		resp := &serve.Response{Status: serve.StatusShed, ShedReason: reason}
		frame, err := enc.Response(nil, 1, resp, 0)
		if err != nil {
			t.Fatal(err)
		}
		hdr, _ := splitFrame(t, frame)
		var got serve.Response
		if _, _, _, err := ParseResponse(hdr, &got); err != nil {
			t.Fatal(err)
		}
		if got.ShedReason != reason {
			t.Errorf("reason %q decoded as %q", reason, got.ShedReason)
		}
	}
}

// TestResponseTruncatesOversizeStrings: over-long error/reason/ID must be
// truncated, not rejected — a response that fails to encode hangs the
// client.
func TestResponseTruncatesOversizeStrings(t *testing.T) {
	resp := &serve.Response{
		Status:     serve.StatusError,
		ID:         strings.Repeat("i", MaxID+50),
		Error:      strings.Repeat("e", MaxError+100),
		ShedReason: strings.Repeat("r", MaxReason+10),
	}
	var enc Encoder
	frame, err := enc.Response(nil, 5, resp, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _ := splitFrame(t, frame)
	var got serve.Response
	if _, _, _, err := ParseResponse(hdr, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.ID) != MaxID || len(got.Error) != MaxError || len(got.ShedReason) != MaxReason {
		t.Errorf("lengths = %d/%d/%d", len(got.ID), len(got.Error), len(got.ShedReason))
	}
}

func TestEncodeRequestRejectsOversize(t *testing.T) {
	var enc Encoder
	cases := []*serve.Request{
		{Op: "no-such-op"},
		{Op: serve.OpMD5, ID: strings.Repeat("x", MaxID+1)},
		{Op: serve.OpMD5, ClientID: strings.Repeat("x", serve.MaxClientID+1)},
		{Op: serve.OpMD5, Key: make([]byte, MaxKey+1)},
		{Op: serve.OpMD5, Payload: make([]byte, MaxPayload+1)},
		{Op: serve.OpMD5, DeadlineUS: -1},
	}
	for i, req := range cases {
		if _, err := enc.Request(nil, 1, req); err == nil {
			t.Errorf("case %d: encoded, want error", i)
		}
	}
}

// TestParseRequestUnknownOp: an unrecognized op code parses successfully
// with Op "" — the payload length is still trustworthy, so the server can
// discard the body and answer the usual validation error.
func TestParseRequestUnknownOp(t *testing.T) {
	req := &serve.Request{Op: serve.OpMD5, Payload: []byte("abc")}
	var enc Encoder
	frame, err := enc.Request(nil, 3, req)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _ := splitFrame(t, frame)
	// The op byte sits right after type, seq varint (1 byte here), flags.
	hdr[3] = 213 // unassigned code
	var dec Decoder
	var h ReqHead
	if err := dec.ParseRequest(hdr, &h); err != nil {
		t.Fatal(err)
	}
	if h.Op != "" {
		t.Errorf("op = %q, want empty", h.Op)
	}
	if h.PayloadLen != 3 {
		t.Errorf("payload len = %d, want 3", h.PayloadLen)
	}
}

// TestParseMalformedHeaders: every truncation of valid headers must fail
// cleanly (or parse to a prefix-consistent head), never panic or read out
// of bounds.
func TestParseMalformedHeaders(t *testing.T) {
	req := &serve.Request{
		ID: "id", Op: serve.OpSSL, ClientID: "c", Key: []byte("k"),
		Payload: []byte("pp"), RecordSize: 7, DeadlineUS: 9,
	}
	var enc Encoder
	reqFrame, err := enc.Request(nil, 1, req)
	if err != nil {
		t.Fatal(err)
	}
	reqHdr, _ := splitFrame(t, reqFrame)
	var dec Decoder
	var h ReqHead
	for n := 1; n < len(reqHdr); n++ {
		if err := dec.ParseRequest(reqHdr[:n], &h); err == nil {
			t.Errorf("request header truncated to %d bytes parsed", n)
		}
	}
	// Trailing garbage is also malformed: the header must parse exactly.
	if err := dec.ParseRequest(append(append([]byte{}, reqHdr...), 0), &h); err == nil {
		t.Error("request header with trailing byte parsed")
	}

	resp := &serve.Response{Status: serve.StatusOK, ID: "id", Error: "e", Digest: []byte("d")}
	respFrame, err := enc.Response(nil, 1, resp, 10)
	if err != nil {
		t.Fatal(err)
	}
	respHdr, _ := splitFrame(t, respFrame)
	var got serve.Response
	for n := 1; n < len(respHdr); n++ {
		if _, _, _, err := ParseResponse(respHdr[:n], &got); err == nil {
			t.Errorf("response header truncated to %d bytes parsed", n)
		}
	}
	// Status byte 0 decodes to "" and must be rejected.
	bad := append([]byte{}, respHdr...)
	bad[2] = 0
	if _, _, _, err := ParseResponse(bad, &got); err == nil {
		t.Error("response with zero status byte parsed")
	}
}

// TestDecoderInternBounded: the per-connection ClientID intern table stops
// growing at maxIntern; overflow IDs still decode correctly.
func TestDecoderInternBounded(t *testing.T) {
	var dec Decoder
	buf := make([]byte, 0, 32)
	for i := 0; i < maxIntern+10; i++ {
		buf = buf[:0]
		buf = append(buf, byte('a'+i%26), byte('0'+i%10), byte('0'+(i/10)%10), byte('0'+(i/100)%10), byte('0'+(i/1000)%10))
		got := dec.internStr(buf)
		if got != string(buf) {
			t.Fatalf("intern %q = %q", buf, got)
		}
	}
	if len(dec.intern) > maxIntern {
		t.Errorf("intern table grew to %d, cap %d", len(dec.intern), maxIntern)
	}
}

// dialRaw opens a plain TCP connection to the wire listener (no preamble,
// no framing — for protocol-violation tests).
func dialRaw(t *testing.T, addr string) (net.Conn, error) {
	t.Helper()
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// startWireGateway boots a real gateway behind a wire listener on a free
// port, both torn down with the test.
func startWireGateway(t *testing.T, cfg serve.Config) (*serve.Gateway, string) {
	t.Helper()
	return startWireGatewayWith(t, cfg, ServerConfig{})
}

// startWireGatewayWith is startWireGateway with an explicit listener
// configuration.
func startWireGatewayWith(t *testing.T, cfg serve.Config, scfg ServerConfig) (*serve.Gateway, string) {
	t.Helper()
	gw, err := serve.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(gw, scfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := gw.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return gw, addr.String()
}

// TestServerServesEveryOp is the wire protocol twin of the gateway's
// every-op test: each primitive round-trips over a real TCP connection and
// self-verifies its digest, and every response piggybacks a load figure.
func TestServerServesEveryOp(t *testing.T) {
	_, addr := startWireGateway(t, serve.Config{Shards: 2, Seed: 7})
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	payload := []byte("the quick brown fox jumps over the lazy dog")
	want := hashes.MD5Sum(payload)
	for _, op := range serve.AllOps {
		resp, err := tr.RoundTrip(&serve.Request{
			ID: "op-" + string(op), Op: op, Payload: payload,
			RecordSize: 16, ClientID: "wire-test",
		})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if resp.Status != serve.StatusOK {
			t.Fatalf("%s: status %s (%s)", op, resp.Status, resp.Error)
		}
		if resp.ID != "op-"+string(op) {
			t.Errorf("%s: ID %q not echoed", op, resp.ID)
		}
		if !bytes.Equal(resp.Digest, want[:]) {
			t.Errorf("%s: digest mismatch", op)
		}
		if resp.LoadUS < 0 {
			t.Errorf("%s: negative piggybacked load %d", op, resp.LoadUS)
		}
	}
}

// TestServerMultiplexing floods one connection from concurrent goroutines
// and verifies every response pairs with its request (the digest proves
// the payload, the ID proves the demux).
func TestServerMultiplexing(t *testing.T) {
	_, addr := startWireGateway(t, serve.Config{Shards: 2, Seed: 3})
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				payload := []byte(strings.Repeat("x", 1+(w*perWorker+i)%300))
				want := hashes.MD5Sum(payload)
				resp, err := tr.RoundTrip(&serve.Request{Op: serve.OpMD5, Payload: payload})
				if err != nil {
					errs <- err
					return
				}
				if resp.Status != serve.StatusOK || !bytes.Equal(resp.Digest, want[:]) {
					errs <- &serve.ValidationError{Field: "digest", Reason: "mismatch"}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServeClientOverWire runs the transport's three client surfaces —
// a request, the health ping and the stats frame — against a live gateway.
func TestServeClientOverWire(t *testing.T) {
	_, addr := startWireGateway(t, serve.Config{Shards: 1, Seed: 5})
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	payload := []byte("hello over the wire")
	want := hashes.MD5Sum(payload)
	resp, err := tr.RoundTrip(&serve.Request{Op: serve.OpSSL, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != serve.StatusOK || !bytes.Equal(resp.Digest, want[:]) {
		t.Fatalf("status %s digest ok=%v", resp.Status, bytes.Equal(resp.Digest, want[:]))
	}

	if !tr.Healthy() {
		t.Error("healthy = false on a live server")
	}
	stats, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests == 0 || stats.OK == 0 {
		t.Errorf("stats requests/ok = %d/%d", stats.Requests, stats.OK)
	}
}

// TestServerShedsAtEnvelope drives a throttled client against a
// QoS-enabled gateway: after the bucket empties, requests shed with
// reason "throttle" *without* the payload being buffered — and the
// connection stays usable, proving the server discarded the refused
// payload from the stream correctly.
func TestServerShedsAtEnvelope(t *testing.T) {
	_, addr := startWireGateway(t, serve.Config{
		Shards: 1, Seed: 9,
		ClientRateUS: 1, ClientBurstUS: 1, // everything after the first µs throttles
	})
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	payload := bytes.Repeat([]byte("p"), 4096)
	var sheds int
	for i := 0; i < 6; i++ {
		resp, err := tr.RoundTrip(&serve.Request{
			ID: "shed-probe", Op: serve.OpSSL, Payload: payload, ClientID: "greedy",
		})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status == serve.StatusShed {
			if resp.ShedReason != "throttle" {
				t.Errorf("request %d: shed reason %q", i, resp.ShedReason)
			}
			if resp.ID != "shed-probe" {
				t.Errorf("request %d: shed ID %q not echoed", i, resp.ID)
			}
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("no envelope sheds under a 1µs/s budget")
	}
	// The connection survived every discard: an unthrottled client still
	// gets served on the same gateway.
	resp, err := tr.RoundTrip(&serve.Request{Op: serve.OpMD5, Payload: []byte("ok"), ClientID: "other"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != serve.StatusOK {
		t.Fatalf("post-shed request: %s (%s)", resp.Status, resp.Error)
	}
}

// TestServerRejectsBadPreamble: wrong magic or version closes the
// connection without serving.
func TestServerRejectsBadPreamble(t *testing.T) {
	gw, addr := startWireGateway(t, serve.Config{Shards: 1})
	before := gw.Stats().RejectedDecode
	for _, pre := range [][]byte{
		{'X', 'S', 'P', Version},
		{'W', 'S', 'P', 99},
	} {
		conn, err := dialRaw(t, addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(pre)
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err == nil {
			t.Error("server answered a bad preamble")
		}
		conn.Close()
	}
	if after := gw.Stats().RejectedDecode; after < before+2 {
		t.Errorf("rejected decodes %d -> %d, want +2", before, after)
	}
}

// TestTransportErrorsAfterClose: a closed transport fails fast, and a
// server teardown mid-connection fails in-flight callers instead of
// hanging them.
func TestTransportErrorsAfterClose(t *testing.T) {
	_, addr := startWireGateway(t, serve.Config{Shards: 1})
	tr, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	// Close drops the conn; the next send redials (the server is still
	// up), so the transport recovers — that's the redial contract.
	resp, err := tr.RoundTrip(&serve.Request{Op: serve.OpMD5, Payload: []byte("x")})
	if err != nil {
		t.Fatalf("redial after close: %v", err)
	}
	if resp.Status != serve.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	tr.Close()
}

// TestRequestDeadlineOverflowRejected: a deadline that decodes negative
// (uvarint > MaxInt64) must be refused as malformed.
func TestRequestDeadlineOverflowRejected(t *testing.T) {
	// Hand-build a header with deadline = 2^63 (negative as int64).
	h := []byte{FrameRequest}
	h = binary.AppendUvarint(h, 1)        // seq
	h = append(h, 0, opCode[serve.OpMD5]) // flags, op
	h = binary.AppendUvarint(h, 0)        // attempt
	h = binary.AppendUvarint(h, 0)        // record size
	h = binary.AppendUvarint(h, 1<<63)    // deadline: overflows int64
	h = binary.AppendUvarint(h, 0)        // id
	h = binary.AppendUvarint(h, 0)        // client id
	h = binary.AppendUvarint(h, 0)        // key
	h = binary.AppendUvarint(h, 0)        // payload len
	var dec Decoder
	var head ReqHead
	if err := dec.ParseRequest(h, &head); err == nil {
		t.Error("overflowing deadline parsed")
	}
}
