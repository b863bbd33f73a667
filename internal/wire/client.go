package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"wisp/internal/serve"
)

// Transport is the client side of the wire protocol: one TCP connection
// multiplexing any number of in-flight requests, demultiplexed by the
// connection-local sequence number.  It implements serve.Transport, the
// surface the load generator, the routing tier and session replication
// all drive.
//
// A transport redials lazily: if the connection is down when a request
// wants to send, one dial is attempted.  A request whose *write* fails is
// retried once on a fresh connection (nothing reached the server); a
// request in flight when the connection dies returns the transport error
// instead — the caller (a routing tier, the client retry policy) decides
// whether resubmission is safe.
type Transport struct {
	addr string

	mu   sync.Mutex // guards conn/bw/enc/seq and frame writes
	conn net.Conn
	bw   *bufio.Writer
	enc  Encoder
	wbuf []byte
	seq  uint64
	gen  uint64 // connection generation, for readLoop teardown races

	pmu     sync.Mutex
	pending map[uint64]waiter
}

// waiter pairs a pending channel with the connection generation whose
// write carried the request, so a dying connection's readLoop fails only
// its own waiters — never ones already registered on a successor.
type waiter struct {
	ch  chan result
	gen uint64
}

// result is one demultiplexed answer: exactly one of
// resp/stats/pong-load/fetch is meaningful, according to the frame type
// the waiter asked for.
type result struct {
	resp   *serve.Response
	stats  []byte
	loadUS int64
	fetch  []byte // fetched master secret (nil on miss)
	found  bool
	err    error
}

// roundTripTimeout caps one request's wait for its response.
const roundTripTimeout = 5 * time.Minute

// Dial connects a transport to a wire listener at addr ("host:port").
// The first connection is established eagerly so configuration errors
// surface here, not on the first request.
func Dial(addr string) (*Transport, error) {
	t := &Transport{
		addr:    addr,
		pending: make(map[uint64]waiter),
	}
	t.mu.Lock()
	err := t.ensureConnLocked()
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ensureConnLocked dials and sends the preamble if no connection is live.
func (t *Transport) ensureConnLocked() error {
	if t.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", t.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", t.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{Magic0, Magic1, Magic2, Version}); err != nil {
		conn.Close()
		return fmt.Errorf("wire: preamble to %s: %w", t.addr, err)
	}
	conn.SetWriteDeadline(time.Time{})
	t.conn = conn
	t.bw = bufio.NewWriterSize(conn, 32<<10)
	t.gen++
	go t.readLoop(conn, t.gen)
	return nil
}

// dropConnLocked tears down the live connection (its readLoop fails every
// pending waiter when the closed socket errors its next read).
func (t *Transport) dropConnLocked() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
		t.bw = nil
	}
}

// send encodes one frame under the write lock and flushes it, having
// registered ch as the waiter for the chosen seq.  A write failure on an
// established-but-stale connection is retried once on a fresh dial —
// nothing of a failed write reached the server, so resending is always
// safe.  Returns the registered seq.
func (t *Transport) send(ch chan result, build func(dst []byte, seq uint64) ([]byte, error)) (uint64, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		t.mu.Lock()
		if err := t.ensureConnLocked(); err != nil {
			t.mu.Unlock()
			return 0, err
		}
		t.seq++
		seq := t.seq
		gen := t.gen
		frame, err := build(t.wbuf[:0], seq)
		if err != nil {
			t.mu.Unlock()
			return 0, err
		}
		t.wbuf = frame
		t.pmu.Lock()
		t.pending[seq] = waiter{ch: ch, gen: gen}
		t.pmu.Unlock()
		t.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		_, werr := t.bw.Write(frame)
		if werr == nil {
			werr = t.bw.Flush()
		}
		if werr == nil {
			t.conn.SetWriteDeadline(time.Time{})
			t.mu.Unlock()
			return seq, nil
		}
		t.dropConnLocked()
		t.mu.Unlock()
		t.pmu.Lock()
		delete(t.pending, seq)
		t.pmu.Unlock()
		lastErr = werr
	}
	return 0, fmt.Errorf("wire: write to %s: %w", t.addr, lastErr)
}

// sendNoWait encodes and flushes one frame that will never be answered
// (no waiter is registered).  Like send, a failed write is retried once
// on a fresh dial; nothing of a failed write reached the server.
func (t *Transport) sendNoWait(build func(dst []byte, seq uint64) ([]byte, error)) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		t.mu.Lock()
		if err := t.ensureConnLocked(); err != nil {
			t.mu.Unlock()
			return err
		}
		t.seq++
		frame, err := build(t.wbuf[:0], t.seq)
		if err != nil {
			t.mu.Unlock()
			return err
		}
		t.wbuf = frame
		t.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		_, werr := t.bw.Write(frame)
		if werr == nil {
			werr = t.bw.Flush()
		}
		if werr == nil {
			t.conn.SetWriteDeadline(time.Time{})
			t.mu.Unlock()
			return nil
		}
		t.dropConnLocked()
		t.mu.Unlock()
		lastErr = werr
	}
	return fmt.Errorf("wire: write to %s: %w", t.addr, lastErr)
}

// await blocks for the answer to seq, or fails after the transport
// timeout (unregistering the waiter so the slot cannot leak).
func (t *Transport) await(seq uint64, ch chan result, d time.Duration) (result, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r, r.err
	case <-timer.C:
		t.pmu.Lock()
		delete(t.pending, seq)
		t.pmu.Unlock()
		// A response may have been delivered while we were giving up.
		select {
		case r := <-ch:
			return r, r.err
		default:
		}
		return result{}, fmt.Errorf("wire: %s: no response within %s", t.addr, d)
	}
}

// RoundTrip submits one request and blocks for its response.
func (t *Transport) RoundTrip(req *serve.Request) (*serve.Response, error) {
	ch := make(chan result, 1)
	seq, err := t.send(ch, func(dst []byte, seq uint64) ([]byte, error) {
		return t.enc.Request(dst, seq, req)
	})
	if err != nil {
		return nil, err
	}
	r, err := t.await(seq, ch, roundTripTimeout)
	if err != nil {
		return nil, err
	}
	if r.resp == nil {
		return nil, fmt.Errorf("wire: %s: mismatched frame type for request %d", t.addr, seq)
	}
	return r.resp, nil
}

// Stats fetches the server's stats snapshot over a stats frame.
func (t *Transport) Stats() (*serve.Stats, error) {
	ch := make(chan result, 1)
	seq, err := t.send(ch, func(dst []byte, seq uint64) ([]byte, error) {
		return t.enc.StatsReq(dst, seq), nil
	})
	if err != nil {
		return nil, err
	}
	r, err := t.await(seq, ch, 30*time.Second)
	if err != nil {
		return nil, err
	}
	if r.stats == nil {
		return nil, fmt.Errorf("wire: %s: mismatched frame type for stats %d", t.addr, seq)
	}
	var s serve.Stats
	if err := json.Unmarshal(r.stats, &s); err != nil {
		return nil, fmt.Errorf("wire: decoding stats: %w", err)
	}
	return &s, nil
}

// Ping round-trips a ping frame, returning the node's piggybacked load
// estimate (µs of estimated backlog).
func (t *Transport) Ping(d time.Duration) (int64, error) {
	ch := make(chan result, 1)
	seq, err := t.send(ch, func(dst []byte, seq uint64) ([]byte, error) {
		return t.enc.Ping(dst, seq), nil
	})
	if err != nil {
		return 0, err
	}
	r, err := t.await(seq, ch, d)
	if err != nil {
		return 0, err
	}
	return r.loadUS, nil
}

// Replicate pushes a batch of session secrets, fire and forget: the
// frame is flushed and the call returns — no acknowledgement exists on
// the wire, so a lost peer costs at most the batch (and one full
// handshake per lost session later).
func (t *Transport) Replicate(entries []ReplicaEntry) error {
	return t.sendNoWait(func(dst []byte, seq uint64) ([]byte, error) {
		return t.enc.Replicate(dst, seq, entries)
	})
}

// FetchSession asks the peer for one session's master secret, blocking
// up to d.  A clean not-found answers (nil, false, nil).
func (t *Transport) FetchSession(id []byte, d time.Duration) ([]byte, bool, error) {
	ch := make(chan result, 1)
	seq, err := t.send(ch, func(dst []byte, seq uint64) ([]byte, error) {
		return t.enc.Fetch(dst, seq, id)
	})
	if err != nil {
		return nil, false, err
	}
	r, err := t.await(seq, ch, d)
	if err != nil {
		return nil, false, err
	}
	return r.fetch, r.found, nil
}

// Healthy reports whether the server answers a ping within 2 seconds.
func (t *Transport) Healthy() bool {
	_, err := t.Ping(2 * time.Second)
	return err == nil
}

// Close tears down the connection and fails every in-flight request.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.dropConnLocked()
	t.mu.Unlock()
	t.failAll(fmt.Errorf("wire: transport closed"))
	return nil
}

// failAll delivers err to every pending waiter.
func (t *Transport) failAll(err error) {
	t.pmu.Lock()
	pending := t.pending
	t.pending = make(map[uint64]waiter)
	t.pmu.Unlock()
	for _, w := range pending {
		w.ch <- result{err: err}
	}
}

// failGen delivers err to every waiter whose request rode connection
// generation gen; later generations' waiters stay registered.
func (t *Transport) failGen(gen uint64, err error) {
	var dead []waiter
	t.pmu.Lock()
	for seq, w := range t.pending {
		if w.gen == gen {
			delete(t.pending, seq)
			dead = append(dead, w)
		}
	}
	t.pmu.Unlock()
	for _, w := range dead {
		w.ch <- result{err: err}
	}
}

// take claims the waiter for seq, if still registered.
func (t *Transport) take(seq uint64) (chan result, bool) {
	t.pmu.Lock()
	w, ok := t.pending[seq]
	if ok {
		delete(t.pending, seq)
	}
	t.pmu.Unlock()
	return w.ch, ok
}

// readLoop demultiplexes responses for one connection generation.  On any
// read or parse error it closes the connection and fails every pending
// request — their writes succeeded, so whether the work happened is
// unknowable and the decision to resubmit belongs to the caller.
func (t *Transport) readLoop(conn net.Conn, gen uint64) {
	br := bufio.NewReaderSize(conn, 64<<10)
	err := t.readFrames(br)
	t.mu.Lock()
	if t.gen == gen && t.conn == conn {
		t.conn = nil
		t.bw = nil
	}
	t.mu.Unlock()
	conn.Close()
	t.failGen(gen, fmt.Errorf("wire: connection to %s lost: %w", t.addr, err))
}

func (t *Transport) readFrames(br *bufio.Reader) error {
	hdr := make([]byte, 0, 512)
	for {
		hdrLen, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if hdrLen == 0 || hdrLen > MaxHeader {
			return fmt.Errorf("frame header %d bytes out of range", hdrLen)
		}
		if cap(hdr) < int(hdrLen) {
			hdr = make([]byte, hdrLen)
		}
		hdr = hdr[:hdrLen]
		if _, err := io.ReadFull(br, hdr); err != nil {
			return err
		}
		switch hdr[0] {
		case FrameResponse:
			resp := &serve.Response{}
			seq, dLen, rLen, err := ParseResponse(hdr, resp)
			if err != nil {
				return err
			}
			if n := dLen + rLen; n > 0 {
				body := make([]byte, n)
				if _, err := io.ReadFull(br, body); err != nil {
					return err
				}
				resp.Digest = body[:dLen:dLen]
				resp.Result = body[dLen:]
			}
			if ch, ok := t.take(seq); ok {
				ch <- result{resp: resp, loadUS: resp.LoadUS}
			}
		case FrameStatsResp:
			seq, bodyLen, err := parseStatsResp(hdr)
			if err != nil {
				return err
			}
			body := make([]byte, bodyLen)
			if _, err := io.ReadFull(br, body); err != nil {
				return err
			}
			if ch, ok := t.take(seq); ok {
				ch <- result{stats: body}
			}
		case FramePong:
			seq, loadUS, err := parsePong(hdr)
			if err != nil {
				return err
			}
			if ch, ok := t.take(seq); ok {
				ch <- result{loadUS: loadUS}
			}
		case FrameFetchResp:
			seq, found, masterLen, err := parseFetchResp(hdr)
			if err != nil {
				return err
			}
			var master []byte
			if masterLen > 0 {
				master = make([]byte, masterLen)
				if _, err := io.ReadFull(br, master); err != nil {
					return err
				}
			}
			if ch, ok := t.take(seq); ok {
				ch <- result{fetch: master, found: found}
			}
		default:
			return fmt.Errorf("unexpected frame type 0x%02x", hdr[0])
		}
	}
}
