// Package wire is the serving protocol of wispd and wispgw — their only
// request path: length-prefixed, varint-framed request/response records
// multiplexed over one TCP connection.  It replaced HTTP+JSON because
// that framing (base64 payload expansion, header parsing, per-request
// connection bookkeeping) became a first-order cost once the crypto hot
// paths went allocation-free — and because a routing tier needs a
// compact load figure piggybacked on every response, which HTTP has no
// cheap place for.
//
// # Framing
//
// A connection opens with a 4-byte preamble from the client — 'W' 'S' 'P'
// then a version byte — and then carries frames in both directions:
//
//	frame  := uvarint(len(header)) header body
//	header := type-byte uvarint(seq) type-specific-fields
//
// The body length is always derivable from header fields (a request's
// payload length, a response's digest+result lengths), so the header —
// bounded by MaxHeader — parses completely before any body byte is read.
// That ordering is the envelope-first admission contract: the server runs
// QoS pre-admission on the parsed header and *discards* a refused
// request's payload from the socket instead of buffering it, and a
// header that declares an over-limit payload closes the connection
// before a single body byte is read.
//
// `seq` is a connection-local request identifier chosen by the client;
// responses echo it, so many requests can be in flight on one connection
// and complete out of order.
//
// # Request/response headers
//
//	request  := flags op uvarint(attempt) uvarint(recordSize)
//	            uvarint(deadlineUS) str(id) str(clientID) str(key)
//	            uvarint(payloadLen)            body = payload
//	response := status flags op zigzag(shard) uvarint(records)
//	            uvarint(batch) uvarint(queueUS) uvarint(serviceUS)
//	            f64(estBase) f64(estOpt) uvarint(loadUS) reason
//	            str(error) str(id) uvarint(digestLen) uvarint(resultLen)
//	                                           body = digest result
//
// where str is uvarint(len) bytes, f64 is 8 little-endian IEEE-754 bytes,
// zigzag is a signed varint and reason is a one-byte code (known shed
// reasons decode to interned constants without allocating; code 255 is
// followed by a str for forward compatibility).  loadUS piggybacks the
// answering node's total backlog-cost estimate so a routing tier can feed
// per-node cost EWMAs from ordinary traffic.
//
// Stats (type 3/4) and ping/pong (type 5/6) frames share the envelope;
// pong also carries uvarint(loadUS), making a ping both a health probe
// and a load probe.
//
// # Session replication frames
//
// Replicate (type 7) pushes a batch of session secrets to a peer's
// replica store, fire and forget — the peer sends nothing back, so a
// push can never stall the sender:
//
//	replicate := uvarint(count) count×(uvarint(idLen) uvarint(masterLen))
//	             body = id1 master1 id2 master2 ...
//
// Fetch (type 8) asks a peer for one session secret by ID; FetchResp
// (type 9) answers it:
//
//	fetch     := str(sessionID)                (no body)
//	fetchresp := found-byte uvarint(masterLen) body = master
//
// A handler that does not implement ReplicaHandler discards Replicate
// batches and answers Fetch with not-found: replication frames degrade
// to a session-cache miss, never a poisoned connection.
//
// Encoding and header parsing are allocation-free in steady state: the
// Encoder reuses its scratch buffer, parsed byte fields alias the header
// buffer, and known enum values decode to package-level constants.  The
// only unavoidable costs are materializing a non-empty request ID
// (string(bytes)) and the first sighting of each ClientID (after which a
// bounded intern table serves it without allocating).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"wisp/internal/serve"
)

// Preamble bytes: magic + protocol version, sent once per connection by
// the client before its first frame.
const (
	Magic0  = 'W'
	Magic1  = 'S'
	Magic2  = 'P'
	Version = 1
)

// Frame types.
const (
	FrameRequest   = 0x01
	FrameResponse  = 0x02
	FrameStats     = 0x03 // stats request (no extra fields)
	FrameStatsResp = 0x04 // uvarint(bodyLen); body = stats JSON
	FramePing      = 0x05
	FramePong      = 0x06 // uvarint(loadUS)
	FrameReplicate = 0x07 // session-secret push batch (fire and forget)
	FrameFetch     = 0x08 // session-secret pull request: str(id)
	FrameFetchResp = 0x09 // found byte + uvarint(masterLen); body = master
)

// Wire limits.  Header fields have their own bounds so a malformed length
// prefix can never commit the reader to a large buffer: the whole header
// is capped by MaxHeader, and the payload bound is serve.MaxPayload — the
// gateway's own admission limit.
const (
	MaxHeader    = 4096             // one frame header
	MaxID        = 128              // request/response ID string
	MaxKey       = 256              // explicit key material
	MaxError     = 512              // response error string (truncated)
	MaxReason    = 64               // unknown shed-reason string
	MaxStatsBody = 8 << 20          // stats JSON document
	MaxPayload   = serve.MaxPayload // request payload / response result
	MaxDigest    = 64               // response digest

	// Replication bounds: a session ID is 16 bytes and a master secret 48
	// in the miniature SSL, but the frames leave headroom for larger
	// suites.  The batch cap keeps a full batch's length table well inside
	// MaxHeader.
	MaxSessionID      = 64 // replicated session ID
	MaxMaster         = 96 // replicated master secret
	MaxReplicateBatch = 64 // entries per Replicate frame
)

// Request flag bits.
const (
	flagResume = 1 << 0
	flagHedge  = 1 << 1
)

// Response flag bits.
const (
	flagStolen  = 1 << 0
	flagResumed = 1 << 1
)

// opCode maps the proto's op names onto one wire byte.  0 is reserved for
// "no/unknown op" (error responses for undecodable requests carry it).
var opCode = map[serve.Op]byte{
	serve.OpSSL:        1,
	serve.OpHandshake:  2,
	serve.OpRecord:     3,
	serve.OpRSADecrypt: 4,
	serve.OpRSAEncrypt: 5,
	serve.OpAES:        6,
	serve.Op3DES:       7,
	serve.OpMD5:        8,
	serve.OpSHA1:       9,
	serve.OpHMACMD5:    10,
	serve.OpHMACSHA1:   11,
}

// opFromCode is the inverse table; index 0 and unknown codes yield "".
var opFromCode = func() [256]serve.Op {
	var t [256]serve.Op
	for op, c := range opCode {
		t[c] = op
	}
	return t
}()

// statusCode maps response statuses onto one wire byte.
var statusCode = map[serve.Status]byte{
	serve.StatusOK:      1,
	serve.StatusShed:    2,
	serve.StatusExpired: 3,
	serve.StatusError:   4,
}

var statusFromCode = func() [256]serve.Status {
	var t [256]serve.Status
	for st, c := range statusCode {
		t[c] = st
	}
	return t
}()

// Shed-reason codes.  Decoding a known code yields the interned constant,
// so the hot shed path allocates nothing; reasonOther carries the string.
const reasonOther = 255

var reasonCode = map[string]byte{
	"":                0,
	"queue-full":      1,
	"deadline":        2,
	"draining":        3,
	"throttle":        4,
	"backend-failure": 5,
}

var reasonFromCode = func() [256]string {
	var t [256]string
	for r, c := range reasonCode {
		t[c] = r
	}
	return t
}()

// Encoder builds frames.  It owns a scratch buffer reused across calls,
// so encoding is allocation-free once the scratch has grown to the
// workload's frame sizes.  Not safe for concurrent use; connections keep
// one per writer.
type Encoder struct {
	scratch []byte
}

// appendStr appends uvarint(len(b)) + b.
func appendStr(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendStrS is appendStr for string fields without a []byte conversion
// allocation.
func appendStrS(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64((v<<1)^(v>>63)))
}

// clampU encodes a possibly-negative counter as a non-negative uvarint.
func clampU(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// finish wraps the scratch header (and optional body slices) into dst as
// one frame: uvarint(len(hdr)) hdr body...
func (e *Encoder) finish(dst []byte, body ...[]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.scratch)))
	dst = append(dst, e.scratch...)
	for _, b := range body {
		dst = append(dst, b...)
	}
	return dst
}

// Request appends one request frame for req with connection sequence seq.
// It validates the same size bounds the server enforces, so an oversized
// request fails here instead of poisoning the connection.
func (e *Encoder) Request(dst []byte, seq uint64, req *serve.Request) ([]byte, error) {
	code := opCode[req.Op]
	if code == 0 {
		return dst, fmt.Errorf("wire: unknown op %q", req.Op)
	}
	switch {
	case len(req.ID) > MaxID:
		return dst, fmt.Errorf("wire: request ID %d bytes exceeds limit %d", len(req.ID), MaxID)
	case len(req.ClientID) > serve.MaxClientID:
		return dst, fmt.Errorf("wire: client ID %d bytes exceeds limit %d", len(req.ClientID), serve.MaxClientID)
	case len(req.Key) > MaxKey:
		return dst, fmt.Errorf("wire: key %d bytes exceeds limit %d", len(req.Key), MaxKey)
	case len(req.Payload) > MaxPayload:
		return dst, fmt.Errorf("wire: payload %d bytes exceeds limit %d", len(req.Payload), MaxPayload)
	case req.Attempt < 0 || req.RecordSize < 0 || req.DeadlineUS < 0:
		return dst, fmt.Errorf("wire: negative attempt/record_size/deadline_us")
	}
	h := e.scratch[:0]
	h = append(h, FrameRequest)
	h = binary.AppendUvarint(h, seq)
	var flags byte
	if req.Resume {
		flags |= flagResume
	}
	if req.Hedge {
		flags |= flagHedge
	}
	h = append(h, flags, code)
	h = binary.AppendUvarint(h, uint64(req.Attempt))
	h = binary.AppendUvarint(h, uint64(req.RecordSize))
	h = binary.AppendUvarint(h, uint64(req.DeadlineUS))
	h = appendStrS(h, req.ID)
	h = appendStrS(h, req.ClientID)
	h = appendStr(h, req.Key)
	h = binary.AppendUvarint(h, uint64(len(req.Payload)))
	e.scratch = h
	return e.finish(dst, req.Payload), nil
}

// Response appends one response frame, stamping loadUS (the answering
// node's backlog-cost estimate) into the piggyback field.  Over-long
// error/reason/ID strings are truncated rather than rejected: the
// response must flow or the client hangs.
func (e *Encoder) Response(dst []byte, seq uint64, resp *serve.Response, loadUS int64) ([]byte, error) {
	st := statusCode[resp.Status]
	if st == 0 {
		return dst, fmt.Errorf("wire: unknown status %q", resp.Status)
	}
	if len(resp.Digest) > MaxDigest {
		return dst, fmt.Errorf("wire: digest %d bytes exceeds limit %d", len(resp.Digest), MaxDigest)
	}
	if len(resp.Result) > MaxPayload {
		return dst, fmt.Errorf("wire: result %d bytes exceeds limit %d", len(resp.Result), MaxPayload)
	}
	h := e.scratch[:0]
	h = append(h, FrameResponse)
	h = binary.AppendUvarint(h, seq)
	var flags byte
	if resp.Stolen {
		flags |= flagStolen
	}
	if resp.Resumed {
		flags |= flagResumed
	}
	h = append(h, st, flags, opCode[resp.Op])
	h = appendZigzag(h, int64(resp.Shard))
	h = binary.AppendUvarint(h, clampU(int64(resp.Records)))
	h = binary.AppendUvarint(h, clampU(int64(resp.Batch)))
	h = binary.AppendUvarint(h, clampU(resp.QueueUS))
	h = binary.AppendUvarint(h, clampU(resp.ServiceUS))
	h = binary.LittleEndian.AppendUint64(h, math.Float64bits(resp.EstBaseCycles))
	h = binary.LittleEndian.AppendUint64(h, math.Float64bits(resp.EstOptCycles))
	h = binary.AppendUvarint(h, clampU(loadUS))
	if code, ok := reasonCode[resp.ShedReason]; ok {
		h = append(h, code)
	} else {
		reason := resp.ShedReason
		if len(reason) > MaxReason {
			reason = reason[:MaxReason]
		}
		h = append(h, reasonOther)
		h = appendStrS(h, reason)
	}
	errStr := resp.Error
	if len(errStr) > MaxError {
		errStr = errStr[:MaxError]
	}
	h = appendStrS(h, errStr)
	id := resp.ID
	if len(id) > MaxID {
		id = id[:MaxID]
	}
	h = appendStrS(h, id)
	h = binary.AppendUvarint(h, uint64(len(resp.Digest)))
	h = binary.AppendUvarint(h, uint64(len(resp.Result)))
	e.scratch = h
	return e.finish(dst, resp.Digest, resp.Result), nil
}

// StatsReq appends a stats-request frame.
func (e *Encoder) StatsReq(dst []byte, seq uint64) []byte {
	e.scratch = binary.AppendUvarint(append(e.scratch[:0], FrameStats), seq)
	return e.finish(dst)
}

// StatsResp appends a stats-response frame carrying the JSON document.
func (e *Encoder) StatsResp(dst []byte, seq uint64, doc []byte) ([]byte, error) {
	if len(doc) > MaxStatsBody {
		return dst, fmt.Errorf("wire: stats document %d bytes exceeds limit %d", len(doc), MaxStatsBody)
	}
	h := binary.AppendUvarint(append(e.scratch[:0], FrameStatsResp), seq)
	h = binary.AppendUvarint(h, uint64(len(doc)))
	e.scratch = h
	return e.finish(dst, doc), nil
}

// Ping appends a ping frame.
func (e *Encoder) Ping(dst []byte, seq uint64) []byte {
	e.scratch = binary.AppendUvarint(append(e.scratch[:0], FramePing), seq)
	return e.finish(dst)
}

// Pong appends a pong frame answering seq with the node's load estimate.
func (e *Encoder) Pong(dst []byte, seq uint64, loadUS int64) []byte {
	h := binary.AppendUvarint(append(e.scratch[:0], FramePong), seq)
	h = binary.AppendUvarint(h, clampU(loadUS))
	e.scratch = h
	return e.finish(dst)
}

// ReplicaEntry is one session secret in a Replicate push batch.
type ReplicaEntry struct {
	ID     []byte
	Master []byte
}

// Replicate appends one session-secret push frame carrying the batch.
// The peer never answers it, so seq exists only for envelope uniformity.
func (e *Encoder) Replicate(dst []byte, seq uint64, entries []ReplicaEntry) ([]byte, error) {
	if len(entries) == 0 || len(entries) > MaxReplicateBatch {
		return dst, fmt.Errorf("wire: replicate batch of %d entries out of range [1,%d]", len(entries), MaxReplicateBatch)
	}
	h := binary.AppendUvarint(append(e.scratch[:0], FrameReplicate), seq)
	h = binary.AppendUvarint(h, uint64(len(entries)))
	for _, ent := range entries {
		if len(ent.ID) == 0 || len(ent.ID) > MaxSessionID {
			return dst, fmt.Errorf("wire: replicated session ID %d bytes out of range [1,%d]", len(ent.ID), MaxSessionID)
		}
		if len(ent.Master) == 0 || len(ent.Master) > MaxMaster {
			return dst, fmt.Errorf("wire: replicated master %d bytes out of range [1,%d]", len(ent.Master), MaxMaster)
		}
		h = binary.AppendUvarint(h, uint64(len(ent.ID)))
		h = binary.AppendUvarint(h, uint64(len(ent.Master)))
	}
	e.scratch = h
	dst = binary.AppendUvarint(dst, uint64(len(e.scratch)))
	dst = append(dst, e.scratch...)
	for _, ent := range entries {
		dst = append(dst, ent.ID...)
		dst = append(dst, ent.Master...)
	}
	return dst, nil
}

// Fetch appends one session-secret pull frame for id.
func (e *Encoder) Fetch(dst []byte, seq uint64, id []byte) ([]byte, error) {
	if len(id) == 0 || len(id) > MaxSessionID {
		return dst, fmt.Errorf("wire: fetch session ID %d bytes out of range [1,%d]", len(id), MaxSessionID)
	}
	h := binary.AppendUvarint(append(e.scratch[:0], FrameFetch), seq)
	h = appendStr(h, id)
	e.scratch = h
	return e.finish(dst), nil
}

// FetchResp appends the answer to a Fetch: found=false carries no body.
func (e *Encoder) FetchResp(dst []byte, seq uint64, master []byte, found bool) ([]byte, error) {
	if found && (len(master) == 0 || len(master) > MaxMaster) {
		return dst, fmt.Errorf("wire: fetched master %d bytes out of range [1,%d]", len(master), MaxMaster)
	}
	h := binary.AppendUvarint(append(e.scratch[:0], FrameFetchResp), seq)
	if !found {
		master = nil
	}
	var fb byte
	if found {
		fb = 1
	}
	h = append(h, fb)
	h = binary.AppendUvarint(h, uint64(len(master)))
	e.scratch = h
	return e.finish(dst, master), nil
}

// hdrReader walks a bounded header buffer; the first malformed field
// poisons it and every later read reports failure, so parse functions
// check err once at the end instead of after every field.
type hdrReader struct {
	b   []byte
	off int
	bad bool
}

func (r *hdrReader) fail() {
	r.bad = true
	r.off = len(r.b)
}

func (r *hdrReader) byte() byte {
	if r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *hdrReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *hdrReader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *hdrReader) f64() float64 {
	if r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// bytes returns a length-prefixed field as a subslice of the header
// buffer (no copy — valid only while the buffer is).  nil when empty.
func (r *hdrReader) bytes(max int) []byte {
	n := r.uvarint()
	if r.bad {
		return nil
	}
	if n > uint64(max) || r.off+int(n) > len(r.b) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

// count reads a uvarint bounded by max into an int.
func (r *hdrReader) count(max int) int {
	n := r.uvarint()
	if n > uint64(max) {
		r.fail()
		return 0
	}
	return int(n)
}

// ReqHead is one parsed request-frame header.  Key aliases the header
// buffer; copy it before the buffer is released.
type ReqHead struct {
	Seq        uint64
	Op         serve.Op
	Resume     bool
	Hedge      bool
	Attempt    int
	RecordSize int
	DeadlineUS int64
	ID         string
	ClientID   string
	Key        []byte
	PayloadLen int
}

// ClientKey maps the parsed ClientID to its QoS accounting identity,
// following the same empty-means-anonymous convention as
// serve.Envelope.ClientKey.
func (h *ReqHead) ClientKey() string {
	if h.ClientID == "" {
		return "-"
	}
	return h.ClientID
}

// Decoder parses frame headers.  It owns a bounded ClientID intern table:
// a serving connection sees the same few principals over and over, and
// interning makes their decode allocation-free after first sight.  Not
// safe for concurrent use; connections keep their own.
type Decoder struct {
	intern map[string]string
}

// maxIntern bounds the per-connection intern table so an ID-spray client
// cannot grow it without bound; overflow IDs just allocate per request.
const maxIntern = 4096

func (d *Decoder) internStr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.intern[string(b)]; ok { // alloc-free map probe
		return s
	}
	s := string(b)
	if d.intern == nil {
		d.intern = make(map[string]string, 64)
	}
	if len(d.intern) < maxIntern {
		d.intern[s] = s
	}
	return s
}

// ParseRequest parses a request-frame header (including the leading type
// byte, which the caller has already verified is FrameRequest) into h.
// An unknown op code parses successfully with Op "" — the server still
// knows the payload length, so it can discard the body and answer with
// the same validation error Submit gives any unknown op.
func (d *Decoder) ParseRequest(hdr []byte, h *ReqHead) error {
	r := hdrReader{b: hdr, off: 1}
	h.Seq = r.uvarint()
	flags := r.byte()
	h.Resume = flags&flagResume != 0
	h.Hedge = flags&flagHedge != 0
	h.Op = opFromCode[r.byte()]
	h.Attempt = r.count(math.MaxInt32)
	h.RecordSize = r.count(math.MaxInt32)
	h.DeadlineUS = int64(r.uvarint())
	id := r.bytes(MaxID)
	h.ID = ""
	if len(id) > 0 {
		h.ID = string(id)
	}
	h.ClientID = d.internStr(r.bytes(serve.MaxClientID))
	h.Key = r.bytes(MaxKey)
	h.PayloadLen = r.count(MaxPayload)
	if r.bad || r.off != len(hdr) || h.DeadlineUS < 0 {
		return fmt.Errorf("wire: malformed request header")
	}
	return nil
}

// ParseResponse parses a response-frame header into resp (reusing its
// Digest/Result capacity is the caller's business — the lengths are
// returned, the bytes follow as the frame body).  The error and ID
// strings allocate only when non-empty; known shed reasons intern.
func ParseResponse(hdr []byte, resp *serve.Response) (seq uint64, digestLen, resultLen int, err error) {
	r := hdrReader{b: hdr, off: 1}
	seq = r.uvarint()
	resp.Status = statusFromCode[r.byte()]
	flags := r.byte()
	resp.Stolen = flags&flagStolen != 0
	resp.Resumed = flags&flagResumed != 0
	resp.Op = opFromCode[r.byte()]
	resp.Shard = int(r.zigzag())
	resp.Records = r.count(math.MaxInt32)
	resp.Batch = r.count(math.MaxInt32)
	resp.QueueUS = int64(r.uvarint())
	resp.ServiceUS = int64(r.uvarint())
	resp.EstBaseCycles = r.f64()
	resp.EstOptCycles = r.f64()
	resp.LoadUS = int64(r.uvarint())
	code := r.byte()
	if code == reasonOther {
		resp.ShedReason = ""
		if b := r.bytes(MaxReason); len(b) > 0 {
			resp.ShedReason = string(b)
		}
	} else {
		resp.ShedReason = reasonFromCode[code]
	}
	resp.Error = ""
	if b := r.bytes(MaxError); len(b) > 0 {
		resp.Error = string(b)
	}
	resp.ID = ""
	if b := r.bytes(MaxID); len(b) > 0 {
		resp.ID = string(b)
	}
	digestLen = r.count(MaxDigest)
	resultLen = r.count(MaxPayload)
	if r.bad || r.off != len(hdr) || resp.Status == "" ||
		resp.QueueUS < 0 || resp.ServiceUS < 0 || resp.LoadUS < 0 {
		return 0, 0, 0, fmt.Errorf("wire: malformed response header")
	}
	return seq, digestLen, resultLen, nil
}

// parseSeq extracts the sequence number from any frame header.
func parseSeq(hdr []byte) (uint64, error) {
	r := hdrReader{b: hdr, off: 1}
	seq := r.uvarint()
	if r.bad {
		return 0, fmt.Errorf("wire: malformed frame header")
	}
	return seq, nil
}

// parseStatsResp returns the body length of a stats-response frame.
func parseStatsResp(hdr []byte) (seq uint64, bodyLen int, err error) {
	r := hdrReader{b: hdr, off: 1}
	seq = r.uvarint()
	bodyLen = r.count(MaxStatsBody)
	if r.bad || r.off != len(hdr) {
		return 0, 0, fmt.Errorf("wire: malformed stats response header")
	}
	return seq, bodyLen, nil
}

// parsePong returns the load estimate carried by a pong frame.
func parsePong(hdr []byte) (seq uint64, loadUS int64, err error) {
	r := hdrReader{b: hdr, off: 1}
	seq = r.uvarint()
	loadUS = int64(r.uvarint())
	if r.bad || r.off != len(hdr) {
		return 0, 0, fmt.Errorf("wire: malformed pong header")
	}
	return seq, loadUS, nil
}

// parseReplicate parses a Replicate header: the per-entry (idLen,
// masterLen) table appended to lens, plus the total body length the
// entries occupy.  Replication runs off the hot path, so the appended
// table may allocate.
func parseReplicate(hdr []byte, lens [][2]int) (out [][2]int, bodyLen int, err error) {
	r := hdrReader{b: hdr, off: 1}
	r.uvarint() // seq: fire-and-forget, never answered
	n := r.count(MaxReplicateBatch)
	if n == 0 {
		r.fail()
	}
	out = lens
	for i := 0; i < n && !r.bad; i++ {
		idLen := r.count(MaxSessionID)
		masterLen := r.count(MaxMaster)
		if idLen == 0 || masterLen == 0 {
			r.fail()
			break
		}
		out = append(out, [2]int{idLen, masterLen})
		bodyLen += idLen + masterLen
	}
	if r.bad || r.off != len(hdr) {
		return lens, 0, fmt.Errorf("wire: malformed replicate header")
	}
	return out, bodyLen, nil
}

// parseFetch returns the session ID a Fetch frame asks for; the ID
// aliases hdr.
func parseFetch(hdr []byte) (seq uint64, id []byte, err error) {
	r := hdrReader{b: hdr, off: 1}
	seq = r.uvarint()
	id = r.bytes(MaxSessionID)
	if r.bad || r.off != len(hdr) || len(id) == 0 {
		return 0, nil, fmt.Errorf("wire: malformed fetch header")
	}
	return seq, id, nil
}

// parseFetchResp returns the verdict and body length of a FetchResp.
func parseFetchResp(hdr []byte) (seq uint64, found bool, masterLen int, err error) {
	r := hdrReader{b: hdr, off: 1}
	seq = r.uvarint()
	fb := r.byte()
	masterLen = r.count(MaxMaster)
	if r.bad || r.off != len(hdr) || fb > 1 ||
		(fb == 1 && masterLen == 0) || (fb == 0 && masterLen != 0) {
		return 0, false, 0, fmt.Errorf("wire: malformed fetch response header")
	}
	return seq, fb == 1, masterLen, nil
}
