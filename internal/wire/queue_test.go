package wire

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisp/internal/serve"
)

// echoHandler answers every request with its payload as the result and
// the payload's MD5 as the digest, and counts how often each request ID
// was submitted.
type echoHandler struct {
	mu    sync.Mutex
	seen  map[string]int
	total int
}

func newEchoHandler() *echoHandler { return &echoHandler{seen: make(map[string]int)} }

func (h *echoHandler) Preadmit(serve.Op, string, int) (int64, *serve.Response) { return 0, nil }
func (h *echoHandler) CancelPreadmit(string)                                   {}
func (h *echoHandler) BacklogUS() int64                                        { return 0 }
func (h *echoHandler) StatsJSON() ([]byte, error)                              { return []byte("{}"), nil }
func (h *echoHandler) NoteRejectedDecode()                                     {}

func (h *echoHandler) Submit(req *serve.Request) *serve.Response {
	h.mu.Lock()
	h.seen[req.ID]++
	h.total++
	h.mu.Unlock()
	sum := md5.Sum(req.Payload)
	return &serve.Response{
		ID: req.ID, Op: req.Op, Status: serve.StatusOK,
		Digest: sum[:], Result: append([]byte(nil), req.Payload...),
	}
}

// submits is how often the request ID reached the handler.
func (h *echoHandler) submits(id string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seen[id]
}

// count is how many requests reached the handler.
func (h *echoHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// checkEcho fails unless resp is the echo of req.
func checkEcho(req *serve.Request, resp *serve.Response, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %v", req.ID, err)
	}
	sum := md5.Sum(req.Payload)
	if resp.Status != serve.StatusOK || resp.ID != req.ID ||
		!bytes.Equal(resp.Digest, sum[:]) || !bytes.Equal(resp.Result, req.Payload) {
		return fmt.Errorf("%s: got status %s id %q, %d-byte result for a %d-byte payload",
			req.ID, resp.Status, resp.ID, len(resp.Result), len(req.Payload))
	}
	return nil
}

// tapConn records every Write and runs hook, if set, before passing it
// on: the hook may block the write or fail it.
type tapConn struct {
	net.Conn
	hook func(i int, p []byte) (int, error) // write i; a non-nil error fails it after n bytes went through

	mu     sync.Mutex
	writes [][]byte
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	i := len(c.writes)
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	if c.hook != nil {
		if n, err := c.hook(i, p); err != nil {
			c.Conn.Write(p[:n])
			return n, err
		}
	}
	return c.Conn.Write(p)
}

func (c *tapConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// sentFrame is one request frame found in a write.
type sentFrame struct {
	seq uint64
	id  string
}

// requestFrames splits a write into request frames, failing the test on
// a frame that does not parse as one.
func requestFrames(t *testing.T, p []byte) []sentFrame {
	t.Helper()
	var frames []sentFrame
	var dec Decoder
	for len(p) > 0 {
		n, used := binary.Uvarint(p)
		if used <= 0 || int(n) > len(p)-used {
			t.Fatalf("write holds a cut frame")
		}
		var head ReqHead
		if err := dec.ParseRequest(p[used:used+int(n)], &head); err != nil {
			t.Fatalf("write holds a bad frame: %v", err)
		}
		end := used + int(n) + head.PayloadLen
		if end > len(p) {
			t.Fatalf("frame %d payload cut", head.Seq)
		}
		frames = append(frames, sentFrame{seq: head.Seq, id: strings.Clone(head.ID)})
		p = p[end:]
	}
	return frames
}

// liveQueue is the write queue of t's live connection.
func liveQueue(t *Transport) *writeQueue {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.q
}

// queued is the number of frames waiting in q for the next pass.
func queued(q *writeQueue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return countFrames(q.buf)
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// echoRequest is request i of a test, with an n-byte payload.
func echoRequest(i, n int) *serve.Request {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i + j*7)
	}
	return &serve.Request{ID: fmt.Sprintf("req-%d", i), Op: serve.OpMD5, Payload: p}
}

// TestWriteQueueStress: 64 goroutines share one Transport to a real
// Server, with payloads from 0 B to 256 KiB and pings mixed in; every
// answer must be the echo of its own request.
func TestWriteQueueStress(t *testing.T) {
	h := newEchoHandler()
	tr, err := Dial(startHandler(t, h))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sizes := []int{0, 1, 64, 1000, 4096, 65535, 65536, 65537, 256 << 10}
	const workers, perWorker = 64, 12
	errs := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < perWorker; k++ {
				if rng.Intn(6) == 0 {
					if _, err := tr.Ping(30 * time.Second); err != nil {
						errs <- err
					}
					continue
				}
				req := echoRequest(g*perWorker+k, sizes[rng.Intn(len(sizes))])
				resp, err := tr.RoundTrip(req)
				if err := checkEcho(req, resp, err); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWriteQueueCoalesces: while a write is blocked, the frames queued
// behind it go out intact and in order, in the next single write — on
// both the server's response writer and the client transport.  Each
// sender returns only once its own frame has been written.
func TestWriteQueueCoalesces(t *testing.T) {
	const behind = 8
	// block stalls write number first, signalling blocked, until release
	// closes.
	block := func(first int, blocked, release chan struct{}) func(int, []byte) (int, error) {
		return func(i int, p []byte) (int, error) {
			if i == first {
				blocked <- struct{}{}
				<-release
			}
			return 0, nil
		}
	}

	t.Run("server", func(t *testing.T) {
		blocked, release := make(chan struct{}, 1), make(chan struct{})
		end, peer := net.Pipe()
		go io.Copy(io.Discard, peer)
		defer peer.Close()
		tap := &tapConn{Conn: end, hook: block(0, blocked, release)}
		w := newWriteQueue(tap)
		var returned atomic.Int64
		errs := make(chan error, behind+1)
		pong := func(seq uint64) {
			_, err := w.send(func(e *Encoder, dst []byte) ([]byte, error) { return e.Pong(dst, seq, int64(seq)), nil })
			returned.Add(1)
			errs <- err
		}
		go pong(0)
		<-blocked
		for seq := uint64(1); seq <= behind; seq++ {
			go pong(seq)
			waitFor(t, "the frame to queue", func() bool { return queued(w) == int(seq) })
		}
		if n := returned.Load(); n != 0 {
			t.Fatalf("%d senders returned before their frames were written", n)
		}
		close(release)
		for range behind + 1 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		writes := tap.written()
		if len(writes) != 2 {
			t.Fatalf("%d writes, want 2 (the blocked one, then one for the %d queued behind it)", len(writes), behind)
		}
		var want []byte
		var enc Encoder
		for seq := uint64(1); seq <= behind; seq++ {
			want = enc.Pong(want, seq, int64(seq))
		}
		if !bytes.Equal(writes[1], want) {
			t.Fatalf("second write is %d bytes, not the %d queued pongs in order", len(writes[1]), behind)
		}
	})

	t.Run("client", func(t *testing.T) {
		blocked, release := make(chan struct{}, 1), make(chan struct{})
		addr := startHandler(t, newEchoHandler())
		var tap *tapConn
		tr := newTransport(addr, func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			tap = &tapConn{Conn: c, hook: block(1, blocked, release)} // write 0 is the preamble
			return tap, err
		})
		defer tr.Close()
		reqs := make([]*serve.Request, behind+1)
		errs := make(chan error, len(reqs))
		for i := range reqs {
			reqs[i] = echoRequest(i, 100*i)
			go func(req *serve.Request) {
				resp, err := tr.RoundTrip(req)
				errs <- checkEcho(req, resp, err)
			}(reqs[i])
			if i == 0 {
				<-blocked
			} else {
				waitFor(t, "the frame to queue", func() bool { return queued(liveQueue(tr)) == i })
			}
		}
		close(release)
		for range reqs {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
		writes := tap.written()
		if len(writes) != 3 {
			t.Fatalf("%d writes, want 3 (preamble, the blocked frame, the %d queued behind it)", len(writes), behind)
		}
		got := requestFrames(t, writes[2])
		if len(got) != behind {
			t.Fatalf("second frame write carries %d frames, want %d", len(got), behind)
		}
		for i, f := range got {
			if f.id != reqs[i+1].ID {
				t.Fatalf("second frame write carries %v, want %s..%s in order", got, reqs[1].ID, reqs[behind].ID)
			}
		}
	})
}

// TestWriteQueueFailedWrite: a write that fails leaves the flusher's own
// request and the requests queued behind it unsent; each is resent once on
// a fresh connection, as a new frame, and answered exactly once.  No frame
// queued on one connection is written to another, and frames that reached
// the kernel before the failure are not resent.
func TestWriteQueueFailedWrite(t *testing.T) {
	const behind = 6
	errBroken := errors.New("broken pipe (injected)")

	// run sends 1+behind requests over a transport whose first connection
	// stalls its first frame write and then fails it after sent bytes; the
	// redial's connection fails every frame write when failAgain is set.
	// It returns the connections and each request's result.
	run := func(t *testing.T, h *echoHandler, sent func(p []byte) int, failAgain bool) ([]*tapConn, []*serve.Request, []error) {
		addr := startHandler(t, h)
		release := make(chan struct{})
		blocked := make(chan struct{}, 1)
		var mu sync.Mutex
		var conns []*tapConn
		tr := newTransport(addr, func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			tap := &tapConn{Conn: c}
			switch {
			case len(conns) == 0:
				tap.hook = func(i int, p []byte) (int, error) {
					if i == 1 {
						blocked <- struct{}{}
						<-release
						return sent(p), errBroken
					}
					return 0, nil
				}
			case failAgain:
				tap.hook = func(i int, p []byte) (int, error) {
					if i > 0 {
						return 0, errBroken
					}
					return 0, nil
				}
			}
			conns = append(conns, tap)
			return tap, nil
		})
		defer tr.Close()
		reqs := make([]*serve.Request, behind+1)
		results := make([]error, len(reqs))
		var wg sync.WaitGroup
		for i := range reqs {
			reqs[i] = echoRequest(i, 64+i)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := tr.RoundTrip(reqs[i])
				if err != nil {
					results[i] = err
				} else {
					results[i] = checkEcho(reqs[i], resp, nil)
					if results[i] != nil {
						t.Error(results[i])
					}
				}
			}(i)
			if i == 0 {
				<-blocked
			} else {
				waitFor(t, "the frame to queue", func() bool { return queued(liveQueue(tr)) == i })
			}
		}
		close(release)
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		return conns, reqs, results
	}

	// resent checks the frames written after the first connection's
	// failure: each request in want exactly once, none under a seq the
	// first connection used, and nothing else.
	resent := func(t *testing.T, conns []*tapConn, want []*serve.Request) {
		t.Helper()
		seen := make(map[string]int)
		for _, c := range conns[1:] {
			for _, w := range c.written()[1:] {
				for _, f := range requestFrames(t, w) {
					if f.seq <= behind+1 {
						t.Errorf("frame %d (%s) queued on the first connection was written to another", f.seq, f.id)
					}
					seen[f.id]++
				}
			}
		}
		for _, req := range want {
			if seen[req.ID] != 1 {
				t.Errorf("%s resent %d times, want 1", req.ID, seen[req.ID])
			}
			delete(seen, req.ID)
		}
		for id, n := range seen {
			t.Errorf("%s written %d times after the failure, want 0", id, n)
		}
	}

	t.Run("resent once", func(t *testing.T) {
		h := newEchoHandler()
		conns, reqs, results := run(t, h, func([]byte) int { return 0 }, false)
		for i, err := range results {
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			if n := h.submits(reqs[i].ID); n != 1 {
				t.Errorf("request %d reached the handler %d times, want 1", i, n)
			}
		}
		if len(conns) != 2 {
			t.Fatalf("%d connections dialed, want 2", len(conns))
		}
		if w := conns[0].written(); len(w) != 2 {
			t.Fatalf("first connection took %d writes, want the preamble and the failed one", len(w))
		}
		resent(t, conns, reqs)
	})

	t.Run("partial write", func(t *testing.T) {
		// The failing write hands the flusher's own frame to the kernel
		// whole: that request is not resent and fails as in flight; the
		// rest resend.
		h := newEchoHandler()
		var first int
		conns, reqs, results := run(t, h, func(p []byte) int {
			n, used := binary.Uvarint(p)
			var head ReqHead
			var dec Decoder
			dec.ParseRequest(p[used:used+int(n)], &head)
			first = used + int(n) + head.PayloadLen
			return first
		}, false)
		if first == 0 {
			t.Fatal("failing write never ran")
		}
		if !errors.Is(results[0], errBroken) {
			t.Errorf("request 0: err %v, want the injected write error", results[0])
		}
		if n := h.submits(reqs[0].ID); n > 1 {
			t.Errorf("request 0 reached the handler %d times, want at most 1", n)
		}
		for i := 1; i < len(reqs); i++ {
			if results[i] != nil {
				t.Errorf("request %d: %v", i, results[i])
			}
			if n := h.submits(reqs[i].ID); n != 1 {
				t.Errorf("request %d reached the handler %d times, want 1", i, n)
			}
		}
		resent(t, conns, reqs[1:])
	})

	t.Run("resend fails", func(t *testing.T) {
		h := newEchoHandler()
		_, reqs, results := run(t, h, func([]byte) int { return 0 }, true)
		for i, err := range results {
			if err == nil || !errors.Is(err, errBroken) {
				t.Errorf("request %d: err %v, want the injected write error", i, err)
			}
			if n := h.submits(reqs[i].ID); n != 0 {
				t.Errorf("request %d reached the handler %d times, want 0", i, n)
			}
		}
	})

	t.Run("replicate", func(t *testing.T) {
		// A push whose write fails twice reports the error, so the
		// replicator counts the batch dropped.
		addr := startHandler(t, newReplicaStub())
		dials := 0
		tr := newTransport(addr, func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			dials++
			return &tapConn{Conn: c, hook: func(i int, p []byte) (int, error) {
				if i > 0 {
					return 0, errBroken
				}
				return 0, nil
			}}, err
		})
		defer tr.Close()
		err := tr.Replicate([]ReplicaEntry{{ID: []byte("sid"), Master: []byte("master")}})
		if !errors.Is(err, errBroken) {
			t.Errorf("Replicate: err %v, want the injected write error", err)
		}
		if dials != 2 {
			t.Errorf("%d dials, want 2 (the first and the resend's)", dials)
		}
	})
}

// TestWriteQueueCloseDuringWrite: Close while a frame write is blocked
// fails that request and the ones queued behind it with the closed
// error; none is resent, and no connection is dialed after Close.
func TestWriteQueueCloseDuringWrite(t *testing.T) {
	const behind = 3
	h := newEchoHandler()
	addr := startHandler(t, h)
	blocked, release := make(chan struct{}, 1), make(chan struct{})
	var dials atomic.Int64
	tr := newTransport(addr, func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		dials.Add(1)
		return &tapConn{Conn: c, hook: func(i int, p []byte) (int, error) {
			if i == 1 {
				blocked <- struct{}{}
				<-release
			}
			return 0, nil
		}}, err
	})
	errs := make(chan error, behind+1)
	for i := 0; i <= behind; i++ {
		go func(req *serve.Request) {
			_, err := tr.RoundTrip(req)
			errs <- err
		}(echoRequest(i, 64))
		if i == 0 {
			<-blocked
		} else {
			waitFor(t, "the frame to queue", func() bool { return queued(liveQueue(tr)) == i })
		}
	}
	tr.Close()
	close(release)
	for i := 0; i <= behind; i++ {
		if err := <-errs; !errors.Is(err, errClosed) {
			t.Errorf("err %v, want %v", err, errClosed)
		}
	}
	// A resend would have dialed inside RoundTrip, before it returned.
	if n := dials.Load(); n != 1 {
		t.Errorf("%d dials, want 1: a request cut off by Close was resent", n)
	}
	if n := h.count(); n != 0 {
		t.Errorf("%d requests reached the handler after Close, want 0", n)
	}
}

// TestWriteQueueServerWriteError: once a response write fails, the
// writer refuses further frames, so the caller closes the connection.
func TestWriteQueueServerWriteError(t *testing.T) {
	end, peer := net.Pipe()
	peer.Close()
	w := newWriteQueue(end)
	pong := func(e *Encoder, dst []byte) ([]byte, error) { return e.Pong(dst, 1, 0), nil }
	if _, err := w.send(pong); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}
	if _, err := w.send(pong); err == nil {
		t.Fatal("a dead connection accepted another frame")
	}
}

// TestWriteQueueBackpressure: against a peer that sends requests and never
// reads, a request holds its MaxConnInflight slot until its response is
// written, so the server stops reading once the slots are full.
func TestWriteQueueBackpressure(t *testing.T) {
	const slots = 4
	h := newEchoHandler()
	srv := NewServer(h, ServerConfig{MaxConnInflight: slots})
	end, peer := net.Pipe() // unbuffered: a write waits for its reader
	srv.wg.Add(1)
	go srv.serveConn(end)
	defer srv.Close()
	defer peer.Close()
	var read atomic.Int64 // request frames the server has taken off the pipe
	go func() {
		if _, err := peer.Write([]byte{Magic0, Magic1, Magic2, Version}); err != nil {
			return
		}
		var enc Encoder
		for i := 0; i < 4*slots; i++ {
			frame, err := enc.Request(nil, uint64(i+1), echoRequest(i, 64))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := peer.Write(frame); err != nil {
				return
			}
			read.Add(1)
		}
	}()
	waitFor(t, "the slots to fill", func() bool { return h.count() >= slots })
	// What must not happen is more progress; give a server that would
	// keep reading the time to do so.
	time.Sleep(50 * time.Millisecond)
	if n := h.count(); n != slots {
		t.Errorf("%d requests served while the peer read nothing, want %d (MaxConnInflight)", n, slots)
	}
	if n := read.Load(); n > slots+1 {
		t.Errorf("server read %d requests while the peer read nothing, want at most %d", n, slots+1)
	}
}
