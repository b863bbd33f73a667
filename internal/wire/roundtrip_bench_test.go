package wire

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisp/internal/gwroute"
	"wisp/internal/serve"
)

// writeCount tallies the frame writes of one side of the stack (client
// transports or servers) and the frames they carried.
type writeCount struct{ writes, frames atomic.Int64 }

func (c *writeCount) reset() { c.writes.Store(0); c.frames.Store(0) }

func (c *writeCount) perWrite() float64 {
	if w := c.writes.Load(); w > 0 {
		return float64(c.frames.Load()) / float64(w)
	}
	return 0
}

// countConn counts its writes into n; a client connection's first write,
// the preamble, is passed through uncounted.
type countConn struct {
	net.Conn
	n        *writeCount
	preamble bool
}

func (c *countConn) Write(p []byte) (int, error) {
	if c.preamble {
		c.preamble = false
		return c.Conn.Write(p)
	}
	c.n.writes.Add(1)
	c.n.frames.Add(int64(countFrames(p)))
	return c.Conn.Write(p)
}

// countFrames is the number of whole frames in p; a pass writes only
// whole frames.
func countFrames(p []byte) int {
	var dec Decoder
	var head ReqHead
	var resp serve.Response
	n := 0
	for len(p) > 0 {
		hdrLen, used := binary.Uvarint(p)
		if used <= 0 || int(hdrLen) > len(p)-used {
			return n
		}
		hdr := p[used : used+int(hdrLen)]
		body := 0
		switch hdr[0] {
		case FrameRequest:
			dec.ParseRequest(hdr, &head)
			body = head.PayloadLen
		case FrameResponse:
			_, d, r, _ := ParseResponse(hdr, &resp)
			body = d + r
		}
		p = p[min(len(p), used+int(hdrLen)+body):]
		n++
	}
	return n
}

// countListener wraps every accepted connection in a countConn.
type countListener struct {
	net.Listener
	n *writeCount
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, n: l.n}, nil
}

// benchStack is a 1-shard gateway behind a wire listener and, when
// routed, a gwroute.Router on its own listener in front of it, with every
// connection counting its writes.
type benchStack struct {
	client, server writeCount
	front          *Transport
	close          func()
}

func (s *benchStack) listen(b *testing.B, h Handler) (*Server, string) {
	srv := NewServer(h, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv.ln = countListener{Listener: srv.ln, n: &s.server}
	go srv.Serve()
	return srv, addr.String()
}

func (s *benchStack) dial(b *testing.B, addr string) *Transport {
	t := newTransport(addr, func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &countConn{Conn: c, n: &s.client, preamble: true}, nil
	})
	if _, err := t.live(); err != nil {
		b.Fatal(err)
	}
	return t
}

func newBenchStack(b *testing.B, routed bool) *benchStack {
	s := &benchStack{}
	gw, err := serve.NewGateway(serve.Config{Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	gsrv, addr := s.listen(b, gw)
	var router *gwroute.Router
	var rsrv *Server
	if routed {
		router, err = gwroute.NewRouter(gwroute.Config{
			Backends: []string{addr},
			Dial:     func(a string) (serve.Transport, error) { return s.dial(b, a), nil },
		})
		if err != nil {
			b.Fatal(err)
		}
		rsrv, addr = s.listen(b, router)
	}
	s.front = s.dial(b, addr)
	s.close = func() {
		s.front.Close()
		if routed {
			rsrv.Close()
			router.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		gw.Drain(ctx)
		gsrv.Close()
	}
	return s
}

// BenchmarkWireRoundTripDirect times 64-B md5 round trips from one
// Transport to a 1-shard gateway, one and 16 in flight, and reports the
// frames each side packs into one write.
//
//	go test -bench WireRoundTrip -benchmem ./internal/wire/
func BenchmarkWireRoundTripDirect(b *testing.B) { benchRoundTrip(b, false) }

// BenchmarkWireRoundTripRouted is BenchmarkWireRoundTripDirect through a
// gwroute.Router: four connections per op instead of two.
func BenchmarkWireRoundTripRouted(b *testing.B) { benchRoundTrip(b, true) }

func benchRoundTrip(b *testing.B, routed bool) {
	payload := bytes.Repeat([]byte{0x5a}, 64)
	want := md5.Sum(payload)
	for _, inflight := range []int{1, 16} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			s := newBenchStack(b, routed)
			defer s.close()
			var next atomic.Int64
			var failed atomic.Value
			op := func() {
				resp, err := s.front.RoundTrip(&serve.Request{Op: serve.OpMD5, Payload: payload})
				if err == nil && (resp.Status != serve.StatusOK || !bytes.Equal(resp.Digest, want[:])) {
					err = fmt.Errorf("status %s, digest %x", resp.Status, resp.Digest)
				}
				if err != nil {
					failed.Store(err)
				}
			}
			op()
			s.client.reset()
			s.server.reset()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < inflight; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						op()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if err, ok := failed.Load().(error); ok {
				b.Fatal(err)
			}
			b.ReportMetric(s.client.perWrite(), "client-frames/write")
			b.ReportMetric(s.server.perWrite(), "server-frames/write")
		})
	}
}
