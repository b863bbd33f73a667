package wire

import (
	"net"
	"runtime"
	"sync"
	"time"
)

// Both ends of a connection write through one writeQueue: the server's
// response writer and the client's Transport.  It is a group commit.
// Frames are encoded straight onto the queue under its lock, and each
// sender waits until the pass that carries its frame has been written.
// The sender that finds no flush in progress becomes the flusher: it
// yields once (runtime.Gosched), so goroutines that are already runnable
// can queue their frames behind it, then writes everything queued in one
// conn.Write per pass until a pass finds the queue empty.  On an idle
// connection nothing else is runnable, the yield returns at once, and
// each frame is written as soon as it is queued; there is no timer and
// no Nagle-style delay.  Because a sender returns only once its frame has
// reached the kernel, a peer that stops reading stalls the senders, as a
// plain write would.

// writeTimeout bounds one pass's conn.Write; the deadline is set once per
// pass, not once per frame.
const writeTimeout = 30 * time.Second

// maxKeptBuf caps the queue buffer a connection keeps between passes.
// One large frame (a stats document reaches 8 MiB, a payload 1 MiB) can
// grow a buffer past it; that buffer is dropped once written.
const maxKeptBuf = 64 << 10

// writeQueue is one connection's write path: two alternating frame
// buffers, one filling while the other is written.
type writeQueue struct {
	conn net.Conn

	mu       sync.Mutex
	passed   [2]sync.Cond // passed[p%2] is broadcast when pass p ends
	enc      Encoder
	buf      []byte // frames for pass next
	spare    []byte // the buffer the last pass wrote, kept for reuse
	flushing bool   // a goroutine is in flush
	next     uint64 // the pass that will carry buf
	done     uint64 // passes before this one were written whole
	err      error  // why the connection died; no pass starts once set
	cut      int    // bytes of pass done that reached the kernel before its write failed
}

func newWriteQueue(conn net.Conn) *writeQueue {
	q := &writeQueue{conn: conn}
	q.passed[0].L = &q.mu
	q.passed[1].L = &q.mu
	return q
}

// send appends the frame build encodes and returns once the pass that
// carries it has been written, flushing the queue itself if no other
// goroutine is.  A build error is returned with nothing queued.  Any
// other error means the connection is dead; sent then reports whether
// the frame had wholly reached the kernel before it died.
func (q *writeQueue) send(build func(e *Encoder, dst []byte) ([]byte, error)) (sent bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return false, q.err
	}
	buf, err := build(&q.enc, q.buf)
	if err != nil {
		return false, err
	}
	q.buf = buf
	mine, end := q.next, len(buf)
	if !q.flushing {
		q.flush()
	}
	// Wait for pass mine to end, or for the connection to die before it
	// started.
	for mine >= q.done && (q.err == nil || q.flushing && mine+1 == q.next) {
		q.passed[mine%2].Wait()
	}
	if mine < q.done {
		return true, nil
	}
	return mine == q.done && end <= q.cut, q.err
}

// flush yields, then writes everything queued, one conn.Write per pass,
// until a pass finds the queue empty or the connection dies.  It is
// entered and left with q.mu held.
func (q *writeQueue) flush() {
	q.flushing = true
	q.mu.Unlock()
	runtime.Gosched()
	q.mu.Lock()
	for len(q.buf) > 0 && q.err == nil {
		out := q.buf
		q.buf, q.spare = q.spare[:0], nil
		pass := q.next
		q.next++
		q.mu.Unlock()
		q.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		n, err := q.conn.Write(out)
		q.mu.Lock()
		if err == nil {
			q.done++
		} else {
			q.cut = n
			q.fail(err)
		}
		if cap(out) <= maxKeptBuf {
			q.spare = out[:0]
		}
		q.passed[pass%2].Broadcast()
	}
	q.flushing = false
}

// kill marks the connection dead: no pass starts after the one in
// progress, and the frames still queued fail with err unless an earlier
// error already killed it.
func (q *writeQueue) kill(err error) {
	q.mu.Lock()
	q.fail(err)
	q.mu.Unlock()
}

// fail records err, unless an earlier error did, drops the queued
// frames and wakes their senders.
func (q *writeQueue) fail(err error) {
	if q.err == nil {
		q.err = err
	}
	q.buf = q.buf[:0]
	q.passed[0].Broadcast()
	q.passed[1].Broadcast()
}
