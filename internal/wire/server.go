package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"wisp/internal/bufpool"
	"wisp/internal/serve"
)

// Handler is the serving surface a wire listener drives.  *serve.Gateway
// implements it directly; internal/gwroute's Router implements it too, so
// the same listener fronts a single node and a routing tier.
type Handler interface {
	// Preadmit prices a request from its envelope (op, client identity,
	// payload size) before the payload is read off the socket; a non-nil
	// response is the shed to answer with, and the payload is discarded.
	Preadmit(op serve.Op, clientKey string, payloadBytes int) (int64, *serve.Response)
	// CancelPreadmit backs out a successful Preadmit whose payload failed
	// to materialize.
	CancelPreadmit(clientKey string)
	// Submit serves one request, blocking until the response is ready.
	Submit(req *serve.Request) *serve.Response
	// BacklogUS is the node's total backlog-cost estimate, piggybacked on
	// every response and pong for routing tiers.
	BacklogUS() int64
	// StatsJSON renders the stats snapshot answered to stats frames.
	StatsJSON() ([]byte, error)
	// NoteRejectedDecode counts one malformed frame refused at decode.
	NoteRejectedDecode()
}

// ReplicaHandler is the optional session-replication surface a Handler
// may additionally implement (the gateway does; a routing tier does
// not).  The server type-asserts for it when a Replicate or Fetch frame
// arrives; a handler without it degrades gracefully — pushes are
// discarded and fetches answer not-found, both indistinguishable from a
// replica-cache miss.
type ReplicaHandler interface {
	// ReplicaStore installs one pushed session secret in the local cache.
	ReplicaStore(id, master []byte)
	// ReplicaLookup returns the master secret for a session ID without
	// triggering any further remote fetch (peers must not recurse).
	ReplicaLookup(id []byte) ([]byte, bool)
}

// ServerConfig tunes a wire listener.  The zero value selects defaults.
type ServerConfig struct {
	// MaxConnInflight bounds concurrently-submitted requests per
	// connection; a request holds its slot until its response has been
	// written, and further frames wait on the socket (TCP backpressure)
	// until a slot frees.  Default 256.
	MaxConnInflight int
	// ReadTimeout bounds how long one frame may take to arrive once its
	// first byte has — the slow-loris defense.  An idle connection between
	// frames is never cut.  0 disables the bound.
	ReadTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConnInflight <= 0 {
		c.MaxConnInflight = 256
	}
	return c
}

// Server accepts wire protocol connections and drives a Handler.
type Server struct {
	h   Handler
	cfg ServerConfig
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewServer wraps a handler with the binary protocol front end.
func NewServer(h Handler, cfg ServerConfig) *Server {
	return &Server{h: h, cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
}

// Listen binds addr (host:port; port 0 picks a free one) and returns the
// bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Serve runs the accept loop on the listener from Listen; it blocks until
// Close and returns nil on a clean shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("wire: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every live connection and waits for their
// handlers to return.  Callers drain the Handler first (e.g.
// Gateway.Drain) so in-flight requests answer before the sockets drop.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// writeResponse queues one response frame on w and waits for it to be
// written.  An error means the frame would not encode or the connection
// is dead; the caller closes the connection.
func writeResponse(w *writeQueue, seq uint64, resp *serve.Response, loadUS int64) error {
	_, err := w.send(func(e *Encoder, dst []byte) ([]byte, error) {
		return e.Response(dst, seq, resp, loadUS)
	})
	return err
}

// reqPool recycles the serve.Request shells submitted per frame; their
// Key capacity persists across reuse so explicit-key requests stop
// allocating after warmup.
var reqPool = sync.Pool{New: func() any { return new(serve.Request) }}

// serveConn runs one connection: preamble check, then a frame loop with
// envelope-first admission.  Request frames are served on goroutines
// (bounded by MaxConnInflight) so responses multiplex out of order.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	var pre [4]byte
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return
	}
	if pre[0] != Magic0 || pre[1] != Magic1 || pre[2] != Magic2 || pre[3] != Version {
		s.h.NoteRejectedDecode()
		return
	}
	conn.SetReadDeadline(time.Time{})

	br := bufio.NewReaderSize(conn, 64<<10)
	w := newWriteQueue(conn)
	var dec Decoder
	var head ReqHead
	sem := make(chan struct{}, s.cfg.MaxConnInflight)
	var inflight sync.WaitGroup
	defer inflight.Wait()

	for {
		if s.cfg.ReadTimeout > 0 {
			// Wait, unbounded, for the next frame's first byte; from there
			// the whole frame — header length included — must arrive
			// within ReadTimeout.
			if _, err := br.Peek(1); err != nil {
				return // idle close or peer gone
			}
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		hdrLen, err := binary.ReadUvarint(br)
		if err != nil {
			return // idle close, peer gone or frame cut off by the deadline
		}
		if hdrLen == 0 || hdrLen > MaxHeader {
			s.h.NoteRejectedDecode()
			return
		}
		hdr := bufpool.Get(int(hdrLen))
		if _, err := io.ReadFull(br, hdr); err != nil {
			bufpool.Put(hdr)
			return
		}
		switch hdr[0] {
		case FrameRequest:
			if err := dec.ParseRequest(hdr, &head); err != nil {
				bufpool.Put(hdr)
				s.h.NoteRejectedDecode()
				return // header garbage: the stream framing is untrustworthy
			}
			ok := s.handleRequest(br, conn, w, &head, sem, &inflight)
			bufpool.Put(hdr)
			if !ok {
				return
			}
		case FrameStats:
			seq, err := parseSeq(hdr)
			bufpool.Put(hdr)
			if err != nil {
				s.h.NoteRejectedDecode()
				return
			}
			doc, err := s.h.StatsJSON()
			if err != nil {
				doc = []byte(fmt.Sprintf(`{"error":%q}`, err))
			}
			if _, err := w.send(func(e *Encoder, dst []byte) ([]byte, error) {
				return e.StatsResp(dst, seq, doc)
			}); err != nil {
				return
			}
		case FramePing:
			seq, err := parseSeq(hdr)
			bufpool.Put(hdr)
			if err != nil {
				s.h.NoteRejectedDecode()
				return
			}
			loadUS := s.h.BacklogUS()
			if _, err := w.send(func(e *Encoder, dst []byte) ([]byte, error) {
				return e.Pong(dst, seq, loadUS), nil
			}); err != nil {
				return
			}
		case FrameReplicate:
			lens, bodyLen, err := parseReplicate(hdr, nil)
			bufpool.Put(hdr)
			if err != nil {
				s.h.NoteRejectedDecode()
				return
			}
			body := bufpool.Get(bodyLen)
			if _, err := io.ReadFull(br, body); err != nil {
				bufpool.Put(body)
				return
			}
			if rh, ok := s.h.(ReplicaHandler); ok {
				off := 0
				for _, l := range lens {
					rh.ReplicaStore(body[off:off+l[0]], body[off+l[0]:off+l[0]+l[1]])
					off += l[0] + l[1]
				}
			}
			bufpool.Put(body)
		case FrameFetch:
			seq, id, err := parseFetch(hdr)
			if err != nil {
				bufpool.Put(hdr)
				s.h.NoteRejectedDecode()
				return
			}
			var master []byte
			var found bool
			if rh, ok := s.h.(ReplicaHandler); ok {
				master, found = rh.ReplicaLookup(id)
			}
			bufpool.Put(hdr)
			if _, err := w.send(func(e *Encoder, dst []byte) ([]byte, error) {
				return e.FetchResp(dst, seq, master, found)
			}); err != nil {
				return
			}
		default:
			bufpool.Put(hdr)
			s.h.NoteRejectedDecode()
			return
		}
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Time{})
		}
	}
}

// handleRequest applies envelope-first admission to one parsed request
// header and either discards the payload (shed) or materializes it and
// submits on a bounded goroutine.  Returns false when the connection is
// no longer usable.
func (s *Server) handleRequest(br *bufio.Reader, conn net.Conn, w *writeQueue, head *ReqHead, sem chan struct{}, inflight *sync.WaitGroup) bool {
	est, shed := s.h.Preadmit(head.Op, head.ClientKey(), head.PayloadLen)
	if shed != nil {
		// Refused at the envelope: the payload is never buffered — it is
		// drained from the socket and dropped, so a throttled client's
		// maximum-size payloads cost this node nothing but the read.
		if _, err := br.Discard(head.PayloadLen); err != nil {
			return false
		}
		shed.ID = head.ID
		return writeResponse(w, head.Seq, shed, s.h.BacklogUS()) == nil
	}

	req := reqPool.Get().(*serve.Request)
	keyBuf := req.Key[:0]
	*req = serve.Request{
		ID: head.ID, Op: head.Op,
		RecordSize: head.RecordSize, DeadlineUS: head.DeadlineUS,
		Resume: head.Resume, Attempt: head.Attempt, Hedge: head.Hedge,
		ClientID: head.ClientID,
	}
	if len(head.Key) > 0 {
		req.Key = append(keyBuf, head.Key...)
	} else {
		req.Key = keyBuf
	}
	if head.PayloadLen > 0 {
		buf := bufpool.Get(head.PayloadLen)
		if _, err := io.ReadFull(br, buf); err != nil {
			bufpool.Put(buf)
			reqPool.Put(req)
			if est > 0 {
				s.h.CancelPreadmit(head.ClientKey())
			}
			return false
		}
		req.Payload = buf
	}
	req.SetPreadmitted(est)

	seq := head.Seq
	sem <- struct{}{}
	inflight.Add(1)
	go func() {
		defer func() {
			<-sem
			inflight.Done()
		}()
		resp := s.h.Submit(req)
		serve.ReleaseRequest(req)
		req.Key = req.Key[:0]
		reqPool.Put(req)
		if writeResponse(w, seq, resp, s.h.BacklogUS()) != nil {
			conn.Close() // unblocks the read loop
		}
	}()
	return true
}
