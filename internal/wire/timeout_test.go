package wire

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"wisp/internal/serve"
)

// preambleBytes opens every wire connection.
var preambleBytes = []byte{Magic0, Magic1, Magic2, Version}

// TestServerReadTimeoutCutsStalledFrames is the slow-loris regression: a
// peer that starts a frame and stalls — inside the header-length varint,
// mid-header or mid-payload — must be disconnected within ReadTimeout of
// the frame's first byte.
func TestServerReadTimeoutCutsStalledFrames(t *testing.T) {
	const timeout = 200 * time.Millisecond
	var enc Encoder
	frame, err := enc.Request(nil, 1, &serve.Request{Op: serve.OpMD5, Payload: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	_, n := binary.Uvarint(frame)
	payloadAt := len(frame) - 64
	cases := []struct {
		name string
		sent []byte
	}{
		// 0x80 is the first byte of a two-byte uvarint: the header length
		// itself never completes.
		{"header-length", []byte{0x80}},
		{"mid-header", frame[:n+(payloadAt-n)/2]},
		{"mid-payload", frame[:payloadAt+32]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startWireGatewayWith(t, serve.Config{Shards: 1, Seed: 3}, ServerConfig{ReadTimeout: timeout})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(append(append([]byte(nil), preambleBytes...), tc.sent...)); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			conn.SetReadDeadline(start.Add(10 * timeout))
			if _, err := io.Copy(io.Discard, conn); err != nil {
				t.Fatalf("stalled frame not cut within %v: %v", 10*timeout, err)
			}
			if elapsed := time.Since(start); elapsed > 5*timeout {
				t.Fatalf("stalled frame cut after %v, want about %v", elapsed, timeout)
			}
		})
	}
}

// TestServerReadTimeoutSparesIdle: the read timeout bounds one frame, not
// the gap between frames — a connection idle for several timeouts that
// then sends a whole frame is served.
func TestServerReadTimeoutSparesIdle(t *testing.T) {
	const timeout = 100 * time.Millisecond
	_, addr := startWireGatewayWith(t, serve.Config{Shards: 1, Seed: 3}, ServerConfig{ReadTimeout: timeout})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(preambleBytes); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * timeout)
	var enc Encoder
	frame, err := enc.Request(nil, 7, &serve.Request{Op: serve.OpMD5, Payload: []byte("after a pause")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	hdrLen, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatalf("idle connection cut: %v", err)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		t.Fatal(err)
	}
	var resp serve.Response
	seq, _, _, err := ParseResponse(hdr, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || resp.Status != serve.StatusOK {
		t.Fatalf("seq %d status %s (%s), want 7 ok", seq, resp.Status, resp.Error)
	}
}
