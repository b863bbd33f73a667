package ssl

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/rand"

	"wisp/internal/blockmode"
	"wisp/internal/bufpool"
	"wisp/internal/descipher"
	"wisp/internal/hashes"
	"wisp/internal/mpz"
	"wisp/internal/rsakey"
)

// The functional miniature SSL: an RSA key-transport handshake followed by
// a 3DES-CBC + HMAC-MD5 record layer.  It is deliberately SSL-shaped
// rather than wire-compatible — the platform evaluation needs the
// computational profile (one private-key op per handshake, cipher+MAC per
// record byte), not interoperability.
//
// Buffer ownership: the record layer is allocation-free in steady state.
// Seal and Open return slices of buffers owned by the Session; a returned
// record or payload is valid only until the next Seal/Open/Close call on
// the same Session.  Callers that retain the bytes past that point must
// copy them first.  A Session is single-goroutine, like the Ctx that
// produced it; Close releases its pooled buffers.

const (
	nonceLen     = 16
	premasterLen = 32
	masterLen    = 48            // SSLv3-style master secret, cached for resumption
	keyBlockLen  = 24 + 2*16 + 8 // 3DES key + two MAC keys + IV seed
)

// Transport carries opaque handshake and record messages.
type Transport interface {
	Send(msg []byte) error
	Recv() ([]byte, error)
}

type chanTransport struct {
	out chan<- []byte
	in  <-chan []byte
}

func (c *chanTransport) Send(msg []byte) error {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	c.out <- cp
	return nil
}

func (c *chanTransport) Recv() ([]byte, error) {
	msg, ok := <-c.in
	if !ok {
		return nil, fmt.Errorf("ssl: transport closed")
	}
	return msg, nil
}

// Close tears down the outbound direction so the peer's Recv fails
// instead of blocking forever after a mid-handshake error.
func (c *chanTransport) Close() { close(c.out) }

// Pipe returns two connected in-memory transports (buffered, so a single
// goroutine can run both ends of the handshake in protocol order).
func Pipe() (client, server Transport) {
	a := make(chan []byte, 16)
	b := make(chan []byte, 16)
	return &chanTransport{out: a, in: b}, &chanTransport{out: b, in: a}
}

// prf chains MD5 over (counter ‖ label ‖ secret ‖ nonces) per SSLv3's
// style; the label separates the master-secret derivation from key-block
// expansion so a cached master never equals a key block.  One allocation:
// the returned block (its bytes are retained by the session key schedule).
func prf(label string, secret, clientNonce, serverNonce []byte, outLen int) []byte {
	rounds := (outLen + hashes.MD5Size - 1) / hashes.MD5Size
	block := make([]byte, 0, rounds*hashes.MD5Size)
	var h hashes.MD5
	for i := byte(1); len(block) < outLen; i++ {
		h.Reset()
		h.Write([]byte{i})
		h.Write([]byte(label))
		h.Write(secret)
		h.Write(clientNonce)
		h.Write(serverNonce)
		block = h.Sum(block)
	}
	return block[:outLen]
}

// deriveMaster turns the RSA-transported premaster into the cacheable
// master secret (bound to the full handshake's nonces).
func deriveMaster(premaster, clientNonce, serverNonce []byte) []byte {
	return prf("master secret", premaster, clientNonce, serverNonce, masterLen)
}

// kdf expands a master secret into the session key block using the
// current connection's nonces — fresh keys per connection even when the
// master is reused by an abbreviated handshake.
func kdf(master, clientNonce, serverNonce []byte) []byte {
	return prf("key expansion", master, clientNonce, serverNonce, keyBlockLen)
}

// Session is one established endpoint (client or server side) with record
// sealing and opening keys.
type Session struct {
	cipher  *descipher.TripleCipher
	sendMAC *hashes.HMAC
	recvMAC *hashes.HMAC
	iv      []byte
	sendSeq uint64
	recvSeq uint64

	// Record-layer scratch, reused across calls.  sealBuf and openBuf come
	// from bufpool and grow once to the session's record size; macBuf and
	// hdrBuf keep the per-record MAC computation off the heap.
	sealBuf []byte
	openBuf []byte
	macBuf  []byte
	hdrBuf  [12]byte

	// ID is the session identifier assigned by the server (empty when the
	// server runs without a session cache).
	ID []byte
	// Resumed reports that this session was established by an abbreviated
	// handshake — no RSA premaster exchange ran.
	Resumed bool
}

func newSession(keyBlock []byte, isClient bool) (*Session, error) {
	tc, err := descipher.NewTripleCipher(keyBlock[:24])
	if err != nil {
		return nil, err
	}
	mac1 := keyBlock[24:40]
	mac2 := keyBlock[40:56]
	if !isClient {
		mac1, mac2 = mac2, mac1
	}
	newMD5 := func() hashes.Hash { return hashes.NewMD5() }
	s := &Session{
		cipher:  tc,
		iv:      keyBlock[56:64],
		sendMAC: hashes.NewHMAC(newMD5, mac1),
		recvMAC: hashes.NewHMAC(newMD5, mac2),
		macBuf:  make([]byte, 0, hashes.MD5Size),
	}
	return s, nil
}

// Close returns the session's pooled record buffers.  The session must not
// be used afterwards; records and payloads previously returned by Seal and
// Open are invalidated.
func (s *Session) Close() {
	bufpool.Put(s.sealBuf)
	bufpool.Put(s.openBuf)
	s.sealBuf, s.openBuf = nil, nil
}

// grow returns buf resized to n bytes, recycling through bufpool when the
// current capacity is insufficient.  Contents are not preserved.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		bufpool.Put(buf)
		buf = bufpool.Get(n)
	}
	return buf[:n]
}

// Seal protects one record: HMAC-MD5 over (seq ‖ length ‖ payload), then
// 3DES-CBC over the padded payload‖MAC.  The returned record aliases the
// session's internal buffer and is valid until the next Seal or Close.
func (s *Session) Seal(payload []byte) ([]byte, error) {
	mac := s.recordMAC(s.sendMAC, s.sendSeq, payload)
	s.sendSeq++
	plainLen := len(payload) + len(mac)
	pad := descipher.BlockSize - plainLen%descipher.BlockSize
	s.sealBuf = grow(s.sealBuf, plainLen+pad)
	out := s.sealBuf
	copy(out, payload)
	copy(out[len(payload):], mac)
	for i := plainLen; i < len(out); i++ {
		out[i] = byte(pad)
	}
	if err := blockmode.CBCEncrypt(s.cipher, s.iv, out, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Open verifies and unwraps one record.  The returned payload aliases the
// session's internal buffer and is valid until the next Open or Close.
func (s *Session) Open(record []byte) ([]byte, error) {
	if len(record) == 0 || len(record)%descipher.BlockSize != 0 {
		return nil, fmt.Errorf("ssl: bad record length %d", len(record))
	}
	s.openBuf = grow(s.openBuf, len(record))
	plain := s.openBuf
	if err := blockmode.CBCDecrypt(s.cipher, s.iv, plain, record); err != nil {
		return nil, err
	}
	unpadded, err := blockmode.Unpad(plain, descipher.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("ssl: record padding: %w", err)
	}
	if len(unpadded) < hashes.MD5Size {
		return nil, fmt.Errorf("ssl: record shorter than MAC")
	}
	payload := unpadded[:len(unpadded)-hashes.MD5Size]
	if !s.verifyMAC(payload, unpadded[len(unpadded)-hashes.MD5Size:]) {
		return nil, fmt.Errorf("ssl: record MAC verification failed (seq %d)", s.recvSeq)
	}
	s.recvSeq++
	return payload, nil
}

// verifyMAC reports whether mac authenticates payload at the receive
// sequence number.  The comparison is constant-time: a byte-wise equality
// that exits on the first mismatch leaks how much of a forged MAC was
// correct through timing — exactly the side channel a security gateway
// must not add.
func (s *Session) verifyMAC(payload, mac []byte) bool {
	return subtle.ConstantTimeCompare(mac, s.recordMAC(s.recvMAC, s.recvSeq, payload)) == 1
}

// recordMAC computes the record MAC into the session's scratch using the
// persistent keyed HMAC state; the result is valid until the next
// recordMAC call on the same session.
func (s *Session) recordMAC(h *hashes.HMAC, seq uint64, payload []byte) []byte {
	h.Reset()
	binary.BigEndian.PutUint64(s.hdrBuf[:8], seq)
	binary.BigEndian.PutUint32(s.hdrBuf[8:], uint32(len(payload)))
	h.Write(s.hdrBuf[:])
	h.Write(payload)
	s.macBuf = h.Sum(s.macBuf[:0])
	return s.macBuf
}

// Hello wire format.  Client hello: nonce ‖ sidLen(1) ‖ sid, where a
// non-empty sid offers resumption of a previously established session.
// Server hello: nonce ‖ resumed(1) ‖ sidLen(1) ‖ sid, followed — on a
// full handshake only — by nLen(4) ‖ N ‖ E.  A resumed=1 hello ends the
// handshake: both sides re-expand the cached master secret with the new
// nonces and no premaster crosses the wire.

// ClientHandshake runs a full client handshake (no resumption offer).
func ClientHandshake(t Transport, rng *rand.Rand, ctx *mpz.Ctx) (*Session, error) {
	sess, _, err := ClientResume(t, rng, ctx, nil)
	return sess, err
}

// ClientResume runs the client side, offering to resume prev (nil means
// a full handshake).  It returns the established session plus the client
// state to offer next time: the session ID and master secret the server
// assigned.  When the server declines the offer — cache miss, expired
// entry, or no cache at all — the handshake falls back to the full RSA
// premaster exchange transparently.
func ClientResume(t Transport, rng *rand.Rand, ctx *mpz.Ctx, prev *ClientSession) (*Session, *ClientSession, error) {
	clientNonce := make([]byte, nonceLen)
	rng.Read(clientNonce)
	hello := make([]byte, 0, nonceLen+1+sessionIDLen)
	hello = append(hello, clientNonce...)
	if prev != nil && len(prev.ID) > 0 && len(prev.ID) <= 255 {
		hello = append(hello, byte(len(prev.ID)))
		hello = append(hello, prev.ID...)
	} else {
		hello = append(hello, 0)
	}
	if err := t.Send(hello); err != nil {
		return nil, nil, err
	}

	serverHello, err := t.Recv()
	if err != nil {
		return nil, nil, err
	}
	if len(serverHello) < nonceLen+2 {
		return nil, nil, fmt.Errorf("ssl: short server hello")
	}
	serverNonce := serverHello[:nonceLen]
	resumed := serverHello[nonceLen] == 1
	sidLen := int(serverHello[nonceLen+1])
	rest := serverHello[nonceLen+2:]
	if len(rest) < sidLen {
		return nil, nil, fmt.Errorf("ssl: truncated session id")
	}
	sid := append([]byte(nil), rest[:sidLen]...)
	rest = rest[sidLen:]

	if resumed {
		if prev == nil || !bytes.Equal(sid, prev.ID) {
			return nil, nil, fmt.Errorf("ssl: server resumed a session we did not offer")
		}
		sess, err := newSession(kdf(prev.master, clientNonce, serverNonce), true)
		if err != nil {
			return nil, nil, err
		}
		sess.ID, sess.Resumed = sid, true
		return sess, prev, nil
	}

	// Full handshake: parse the server key, wrap a fresh premaster.
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("ssl: short server hello")
	}
	nLen := int(binary.BigEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) < nLen {
		return nil, nil, fmt.Errorf("ssl: truncated server key")
	}
	pub := &rsakey.PublicKey{
		N: mpz.FromBytes(rest[:nLen]),
		E: mpz.FromBytes(rest[nLen:]),
	}
	premaster := make([]byte, premasterLen)
	rng.Read(premaster)
	wrapped, err := rsakey.PadEncrypt(ctx, rng, pub, premaster)
	if err != nil {
		return nil, nil, fmt.Errorf("ssl: wrapping premaster: %w", err)
	}
	if err := t.Send(wrapped); err != nil {
		return nil, nil, err
	}
	master := deriveMaster(premaster, clientNonce, serverNonce)
	sess, err := newSession(kdf(master, clientNonce, serverNonce), true)
	if err != nil {
		return nil, nil, err
	}
	sess.ID = sid
	var next *ClientSession
	if len(sid) > 0 {
		next = &ClientSession{ID: sid, master: master}
	}
	return sess, next, nil
}

// ServerHandshake runs the server side without a session cache (every
// handshake is full).
func ServerHandshake(t Transport, rng *rand.Rand, ctx *mpz.Ctx, key *rsakey.PrivateKey) (*Session, error) {
	return ServerResume(t, rng, ctx, key, nil)
}

// ServerResume runs the server side against a client handshake.  With a
// non-nil SessionCache it assigns session IDs, caches master secrets,
// and serves abbreviated handshakes on cache hits — skipping the RSA
// premaster exchange entirely.  The cache's Decrypt hook (when set)
// replaces rsakey.PadDecrypt on the full path, letting the gateway route
// the private-key op through its per-key precompute engine.
func ServerResume(t Transport, rng *rand.Rand, ctx *mpz.Ctx, key *rsakey.PrivateKey, sc *SessionCache) (*Session, error) {
	clientHello, err := t.Recv()
	if err != nil {
		return nil, err
	}
	if len(clientHello) < nonceLen+1 {
		return nil, fmt.Errorf("ssl: short client hello")
	}
	clientNonce := clientHello[:nonceLen]
	offLen := int(clientHello[nonceLen])
	if len(clientHello) != nonceLen+1+offLen {
		return nil, fmt.Errorf("ssl: bad client hello length %d", len(clientHello))
	}
	offered := clientHello[nonceLen+1:]

	serverNonce := make([]byte, nonceLen)
	rng.Read(serverNonce)

	// Abbreviated path: the offered session is in the cache.
	if sc != nil && offLen > 0 {
		if master, ok := sc.lookup(offered); ok {
			hello := make([]byte, 0, nonceLen+2+offLen)
			hello = append(hello, serverNonce...)
			hello = append(hello, 1, byte(offLen))
			hello = append(hello, offered...)
			if err := t.Send(hello); err != nil {
				return nil, err
			}
			sess, err := newSession(kdf(master, clientNonce, serverNonce), false)
			if err != nil {
				return nil, err
			}
			sess.ID = append([]byte(nil), offered...)
			sess.Resumed = true
			return sess, nil
		}
	}

	// Full path: assign a session ID (cache present), send the key.
	var sid []byte
	if sc != nil {
		sid = make([]byte, sessionIDLen)
		rng.Read(sid)
	}
	nBytes := key.N.Bytes()
	hello := make([]byte, 0, nonceLen+2+len(sid)+4+len(nBytes)+4)
	hello = append(hello, serverNonce...)
	hello = append(hello, 0, byte(len(sid)))
	hello = append(hello, sid...)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(nBytes)))
	hello = append(hello, lenBuf[:]...)
	hello = append(hello, nBytes...)
	hello = append(hello, key.E.Bytes()...)
	if err := t.Send(hello); err != nil {
		return nil, err
	}

	wrapped, err := t.Recv()
	if err != nil {
		return nil, err
	}
	var premaster []byte
	if sc != nil && sc.Decrypt != nil {
		premaster, err = sc.Decrypt(key, wrapped)
	} else {
		premaster, err = rsakey.PadDecrypt(ctx, key, wrapped)
	}
	if err != nil {
		return nil, fmt.Errorf("ssl: unwrapping premaster: %w", err)
	}
	if len(premaster) != premasterLen {
		return nil, fmt.Errorf("ssl: bad premaster length %d", len(premaster))
	}
	master := deriveMaster(premaster, clientNonce, serverNonce)
	sess, err := newSession(kdf(master, clientNonce, serverNonce), false)
	if err != nil {
		return nil, err
	}
	if sc != nil {
		sc.store(sid, master)
		sess.ID = sid
	}
	return sess, nil
}
