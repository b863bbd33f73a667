package serve_test

// The gateway's request decode lives in the binary wire listener
// (internal/wire), which parses a frame's bounded header — op, client
// identity, declared payload length — before reading any payload.  These
// cases drive a real Gateway through that listener and check the
// gateway-side rejected_decode series.

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wisp/internal/bufpool"
	"wisp/internal/hashes"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

// startWireGateway boots a gateway behind a wire listener on a free port
// and tears both down with the test.
func startWireGateway(t *testing.T, cfg serve.Config, readTimeout time.Duration) (*serve.Gateway, string) {
	t.Helper()
	gw, err := serve.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gw, startWireServer(t, gw, readTimeout)
}

// startWireServer fronts h with a wire listener on a free port.  Cleanup
// drains the gateway first so in-flight requests answer before the
// sockets drop.
func startWireServer(t *testing.T, h wire.Handler, readTimeout time.Duration) string {
	t.Helper()
	srv := wire.NewServer(h, wire.ServerConfig{ReadTimeout: readTimeout})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		if gw, ok := h.(interface{ Drain(context.Context) error }); ok {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := gw.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return addr.String()
}

// rawRequestHeader assembles preamble + one md5 request header by hand,
// bypassing the encoder's bounds, declaring payloadLen body bytes.  The op
// byte is copied from a legal encoded md5 frame (uvarint(len) type seq
// flags op ...: index 4).
func rawRequestHeader(t *testing.T, clientID string, payloadLen uint64) []byte {
	t.Helper()
	var enc wire.Encoder
	legal, err := enc.Request(nil, 1, &serve.Request{Op: serve.OpMD5})
	if err != nil {
		t.Fatal(err)
	}
	hdr := []byte{wire.FrameRequest, 1, 0, legal[4]} // type, seq, flags, op
	hdr = append(hdr, 0, 0, 0)                       // attempt, record size, deadline
	hdr = append(hdr, 0)                             // str(id) = ""
	hdr = binary.AppendUvarint(hdr, uint64(len(clientID)))
	hdr = append(hdr, clientID...)
	hdr = append(hdr, 0) // str(key) = ""
	hdr = binary.AppendUvarint(hdr, payloadLen)
	out := []byte{wire.Magic0, wire.Magic1, wire.Magic2, wire.Version}
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	return append(out, hdr...)
}

// expectRefusedUnread sends a header and no body, and expects the
// listener to hang up on its own: a server that waited for the declared
// body would leave the connection open until the read deadline here.
func expectRefusedUnread(t *testing.T, gw *serve.Gateway, addr string, frame []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if n != 0 {
		t.Fatalf("server answered %d bytes to a refused header", n)
	}
	if got := gw.Stats().RejectedDecode; got != 1 {
		t.Fatalf("rejected_decode = %d, want 1", got)
	}
	if s := gw.Stats(); s.Requests != 0 {
		t.Fatalf("refused header reached Submit: %d requests", s.Requests)
	}
}

// recordingGateway captures a copy of every request the listener submits.
type recordingGateway struct {
	*serve.Gateway
	mu   sync.Mutex
	seen []serve.Request
}

func (g *recordingGateway) Submit(req *serve.Request) *serve.Response {
	cp := *req
	cp.Payload = append([]byte(nil), req.Payload...)
	cp.Key = append([]byte(nil), req.Key...)
	g.mu.Lock()
	g.seen = append(g.seen, cp)
	g.mu.Unlock()
	return g.Gateway.Submit(req)
}

// TestDecodeRequestRoundTrip checks that every request field crosses the
// listener into Submit intact, and that the listener's pooled request
// shells do not leak one request's key into the next.
func TestDecodeRequestRoundTrip(t *testing.T) {
	gw, err := serve.NewGateway(serve.Config{Shards: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingGateway{Gateway: gw}
	tr, err := wire.Dial(startWireServer(t, rec, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	payload := bytes.Repeat([]byte{0xC3}, 5000)
	key := bytes.Repeat([]byte{0x5A}, 20)
	reqs := []*serve.Request{
		{ID: "r1", Op: serve.OpHMACMD5, Payload: payload, Key: key, ClientID: "tenant-a",
			DeadlineUS: 12_345_678, RecordSize: 512, Attempt: 2, Hedge: true},
		{ID: "r2", Op: serve.OpMD5, Payload: payload[:7], ClientID: "tenant-b"},
	}
	for _, req := range reqs {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		want := hashes.MD5Sum(req.Payload)
		if resp.Status != serve.StatusOK || resp.ID != req.ID || !bytes.Equal(resp.Digest, want[:]) {
			t.Fatalf("%s: response %+v", req.ID, resp)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.seen) != len(reqs) {
		t.Fatalf("handler saw %d requests, want %d", len(rec.seen), len(reqs))
	}
	for i, got := range rec.seen {
		want := reqs[i]
		if got.ID != want.ID || got.Op != want.Op || got.ClientID != want.ClientID ||
			got.DeadlineUS != want.DeadlineUS || got.RecordSize != want.RecordSize ||
			got.Attempt != want.Attempt || got.Hedge != want.Hedge || got.Resume != want.Resume {
			t.Errorf("request %d envelope mangled: %+v", i, got)
		}
		if !bytes.Equal(got.Payload, want.Payload) || !bytes.Equal(got.Key, want.Key) {
			t.Errorf("request %d payload/key mangled: %d/%d bytes", i, len(got.Payload), len(got.Key))
		}
	}

	pooled := &serve.Request{Payload: bufpool.Get(64)}
	serve.ReleaseRequest(pooled)
	if pooled.Payload != nil {
		t.Fatal("ReleaseRequest left the payload attached")
	}
}

// TestDecodeRejectsOversizedPayloadBeforeDecode sends a header declaring
// a payload one byte over the limit: the listener must count the
// rejection and hang up without reading the body.
func TestDecodeRejectsOversizedPayloadBeforeDecode(t *testing.T) {
	gw, addr := startWireGateway(t, serve.Config{Shards: 1, Seed: 7}, 0)
	expectRefusedUnread(t, gw, addr, rawRequestHeader(t, "tenant-a", serve.MaxPayload+1))
}

// TestDecodeRejectsOversizedClientID sends an over-long ClientID with a
// small declared payload: refused from the header alone, like the
// oversized payload.
func TestDecodeRejectsOversizedClientID(t *testing.T) {
	gw, addr := startWireGateway(t, serve.Config{Shards: 1, Seed: 7}, 0)
	long := string(bytes.Repeat([]byte{'c'}, serve.MaxClientID+1))
	expectRefusedUnread(t, gw, addr, rawRequestHeader(t, long, 16))
}

// TestDecodeMaxLegalPayloadAccepted: the bound is inclusive — a payload
// of exactly MaxPayload bytes is served, and nothing is counted rejected.
func TestDecodeMaxLegalPayloadAccepted(t *testing.T) {
	gw, addr := startWireGateway(t, serve.Config{Shards: 1, Seed: 7}, 0)
	tr, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	payload := bytes.Repeat([]byte{0x42}, serve.MaxPayload)
	resp, err := tr.RoundTrip(&serve.Request{Op: serve.OpMD5, Payload: payload, ClientID: "big"})
	if err != nil {
		t.Fatal(err)
	}
	want := hashes.MD5Sum(payload)
	if resp.Status != serve.StatusOK || !bytes.Equal(resp.Digest, want[:]) {
		t.Fatalf("max legal payload: %+v", resp)
	}
	if got := gw.Stats().RejectedDecode; got != 0 {
		t.Fatalf("rejected_decode = %d for a legal payload", got)
	}
}

// TestDecodeErrorResponseShape: a header that parses but fails the
// gateway's request validation is answered with an error-status
// response frame, and the connection stays usable.
func TestDecodeErrorResponseShape(t *testing.T) {
	_, addr := startWireGateway(t, serve.Config{Shards: 1, Seed: 7}, 0)
	tr, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	resp, err := tr.RoundTrip(&serve.Request{ID: "bad", Op: serve.OpMD5, Resume: true, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != serve.StatusError || resp.ID != "bad" || resp.Shard != -1 ||
		!strings.Contains(resp.Error, "resume") {
		t.Fatalf("invalid request answered %+v, want a resume validation error", resp)
	}
	ok, err := tr.RoundTrip(&serve.Request{Op: serve.OpMD5, Payload: []byte("x")})
	if err != nil || ok.Status != serve.StatusOK {
		t.Fatalf("connection unusable after an error response: %v %+v", err, ok)
	}
}
