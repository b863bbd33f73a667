package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
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
// Frames go out through the connection's write queue (see queue.go), so
// concurrent requests share writes.  A transport redials lazily: if the
// connection is down when a request wants to send, one dial is attempted.
// A frame that never reached the kernel — its write failed, or the
// connection died while it was queued — is sent once more on a fresh
// connection; nothing of it reached the server, so no request runs twice.
// A request in flight when the connection dies returns the transport
// error instead — the caller (a routing tier, the client retry policy)
// decides whether resubmission is safe.
type Transport struct {
	addr string
	dial func() (net.Conn, error) // opens a connection to addr

	mu sync.Mutex  // guards q
	q  *writeQueue // the live connection's queue; nil while down

	pmu     sync.Mutex // guards seq and pending
	seq     uint64
	pending map[uint64]waiter
}

// waiter pairs a pending channel with the connection its frame was queued
// on, so a dying connection's readLoop fails only its own waiters — never
// ones registered on a successor.
type waiter struct {
	ch chan result
	q  *writeQueue
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

// buildFunc appends one frame carrying seq to dst.
type buildFunc func(e *Encoder, dst []byte, seq uint64) ([]byte, error)

// errClosed fails the requests queued or in flight when Close runs.
var errClosed = errors.New("wire: transport closed")

// roundTripTimeout caps one request's wait for its response.
const roundTripTimeout = 5 * time.Minute

// Dial connects a transport to a wire listener at addr ("host:port").
// The first connection is established eagerly so configuration errors
// surface here, not on the first request.
func Dial(addr string) (*Transport, error) {
	t := newTransport(addr, func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	})
	if _, err := t.live(); err != nil {
		return nil, err
	}
	return t, nil
}

// newTransport returns a transport to addr that connects with dial on its
// first request.
func newTransport(addr string, dial func() (net.Conn, error)) *Transport {
	return &Transport{addr: addr, dial: dial, pending: make(map[uint64]waiter)}
}

// live returns the live connection's queue, dialing and sending the
// preamble if no connection is up.
func (t *Transport) live() (*writeQueue, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.q != nil {
		return t.q, nil
	}
	conn, err := t.dial()
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", t.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{Magic0, Magic1, Magic2, Version}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: preamble to %s: %w", t.addr, err)
	}
	t.q = newWriteQueue(conn)
	go t.readLoop(t.q)
	return t.q, nil
}

// drop closes q's connection and, if it is still the live one, forgets
// it so the next frame redials.  q's readLoop then fails the requests
// the connection carried.
func (t *Transport) drop(q *writeQueue) {
	t.mu.Lock()
	if t.q == q {
		t.q = nil
	}
	t.mu.Unlock()
	q.conn.Close()
}

// send writes one frame built with a fresh seq, having registered ch, if
// non-nil, as the waiter for its answer, and returns once the frame has
// reached the kernel.  A frame that did not is sent once more, with a new
// seq, on a fresh connection; one that did before its connection died is
// not, and send returns the error.
func (t *Transport) send(ch chan result, build buildFunc) (uint64, error) {
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		var q *writeQueue
		if q, err = t.live(); err != nil {
			return 0, err
		}
		t.pmu.Lock()
		t.seq++
		seq := t.seq
		if ch != nil {
			t.pending[seq] = waiter{ch: ch, q: q}
		}
		t.pmu.Unlock()
		var encErr error
		sent, werr := q.send(func(e *Encoder, dst []byte) ([]byte, error) {
			dst, encErr = build(e, dst, seq)
			return dst, encErr
		})
		if werr == nil {
			return seq, nil
		}
		if ch != nil {
			t.unregister(seq, ch)
		}
		if encErr != nil || werr == errClosed {
			return 0, werr
		}
		t.drop(q)
		err = fmt.Errorf("wire: %s: %w", t.addr, werr)
		if sent {
			break
		}
	}
	return 0, err
}

// unregister withdraws the waiter for seq after its frame failed.  For a
// frame that never reached the kernel, the only answer ch can hold is
// the error of a readLoop that failed it meanwhile; it is discarded, so
// ch can wait for the resend.
func (t *Transport) unregister(seq uint64, ch chan result) {
	t.pmu.Lock()
	if _, ok := t.pending[seq]; ok {
		delete(t.pending, seq)
	} else {
		select {
		case <-ch:
		default:
		}
	}
	t.pmu.Unlock()
}

// call sends one frame and blocks up to d for its answer.
func (t *Transport) call(d time.Duration, build buildFunc) (result, uint64, error) {
	ch := make(chan result, 1)
	seq, err := t.send(ch, build)
	if err != nil {
		return result{}, 0, err
	}
	r, err := t.await(seq, ch, d)
	return r, seq, err
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
	r, seq, err := t.call(roundTripTimeout, func(e *Encoder, dst []byte, seq uint64) ([]byte, error) {
		return e.Request(dst, seq, req)
	})
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
	r, seq, err := t.call(30*time.Second, func(e *Encoder, dst []byte, seq uint64) ([]byte, error) {
		return e.StatsReq(dst, seq), nil
	})
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
	r, _, err := t.call(d, func(e *Encoder, dst []byte, seq uint64) ([]byte, error) {
		return e.Ping(dst, seq), nil
	})
	return r.loadUS, err
}

// Replicate pushes a batch of session secrets and returns once the frame
// has reached the kernel.  No acknowledgement exists on the wire, so a
// peer lost after that costs at most the batch (and one full handshake
// per lost session later).  An error means the batch did not encode, the
// peer could not be dialed, or the connection died; the batch is then
// lost.
func (t *Transport) Replicate(entries []ReplicaEntry) error {
	_, err := t.send(nil, func(e *Encoder, dst []byte, seq uint64) ([]byte, error) {
		return e.Replicate(dst, seq, entries)
	})
	return err
}

// FetchSession asks the peer for one session's master secret, blocking
// up to d.  A clean not-found answers (nil, false, nil).
func (t *Transport) FetchSession(id []byte, d time.Duration) ([]byte, bool, error) {
	r, _, err := t.call(d, func(e *Encoder, dst []byte, seq uint64) ([]byte, error) {
		return e.Fetch(dst, seq, id)
	})
	return r.fetch, r.found, err
}

// Healthy reports whether the server answers a ping within 2 seconds.
func (t *Transport) Healthy() bool {
	_, err := t.Ping(2 * time.Second)
	return err == nil
}

// Close tears down the connection and fails every queued and in-flight
// request; none is resent.  A later request redials.
func (t *Transport) Close() error {
	t.mu.Lock()
	q := t.q
	t.q = nil
	t.mu.Unlock()
	if q != nil {
		q.kill(errClosed)
		q.conn.Close()
		t.failConn(q, errClosed)
	}
	return nil
}

// failConn delivers err to every waiter whose frame was queued on q.
// Callers kill q first, so no frame is written to q after this and every
// waiter it misses is still in send, which answers for its own frame.
func (t *Transport) failConn(q *writeQueue, err error) {
	t.pmu.Lock()
	for seq, w := range t.pending {
		if w.q == q {
			delete(t.pending, seq)
			w.ch <- result{err: err}
		}
	}
	t.pmu.Unlock()
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

// readLoop demultiplexes responses for one connection.  On any read or
// parse error it kills the queue and closes the connection.  Frames
// still queued are resent by their senders; requests whose frames were
// written fail with the error — whether the work happened is unknowable
// and the decision to resubmit belongs to the caller.
func (t *Transport) readLoop(q *writeQueue) {
	err := t.readFrames(bufio.NewReaderSize(q.conn, 64<<10))
	t.mu.Lock()
	if t.q == q {
		t.q = nil
	}
	t.mu.Unlock()
	q.kill(fmt.Errorf("connection lost: %w", err))
	q.conn.Close()
	t.failConn(q, fmt.Errorf("wire: connection to %s lost: %w", t.addr, err))
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
