package loadgen

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"wisp/internal/hashes"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

// AttackProfile names one adversarial client behavior the load generator
// can mix into a legit replay.  Attack clients are *additional* to the
// configured legit clients and draw from their own RNG streams, so the
// legit half of a mixed run is byte-for-byte the same workload as an
// attack-free run on the same seed — exactly what the fairness regression
// comparison needs.
type AttackProfile string

const (
	// AttackFlood hammers full SSL transactions (one RSA private-key op
	// each, no resumption) from several concurrent streams per attacker —
	// raw expensive work aimed at saturating the shards.
	AttackFlood AttackProfile = "flood"
	// AttackThrash issues high-rate cheap full handshakes: every one
	// inserts a fresh session into the shared LRU session cache, evicting
	// legit clients' resumable sessions.
	AttackThrash AttackProfile = "thrash"
	// AttackOversize alternates maximum-size legal payloads with frames
	// whose header declares an over-limit payload, which the wire
	// listener must refuse before reading a byte of it.
	AttackOversize AttackProfile = "oversize"
	// AttackSlowloris opens raw connections and dribbles one request
	// frame in small timed chunks, holding connections open; the
	// listener's read timeout is the defense.
	AttackSlowloris AttackProfile = "slowloris"
)

// AllAttackProfiles lists every adversarial profile.
var AllAttackProfiles = []AttackProfile{AttackFlood, AttackThrash, AttackOversize, AttackSlowloris}

// ParseAttackProfiles parses a comma-separated profile list.
func ParseAttackProfiles(s string) ([]AttackProfile, error) {
	var out []AttackProfile
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if part == "" {
			continue
		}
		p := AttackProfile(part)
		valid := false
		for _, known := range AllAttackProfiles {
			if p == known {
				valid = true
				break
			}
		}
		if !valid {
			return nil, fmt.Errorf("unknown attack profile %q (want flood, thrash, oversize or slowloris)", part)
		}
		out = append(out, p)
	}
	return out, nil
}

// attackerCount derives how many attack clients a config spawns: enough
// that attackers make up ~AttackRatio of all clients (attackers are
// additional to the legit Clients), and at least one per requested
// profile so an "all four profiles" run exercises all four.
func (c Config) attackerCount() int {
	if len(c.Attack) == 0 || c.AttackRatio <= 0 {
		return 0
	}
	if c.AttackRatio >= 1 {
		return len(c.Attack)
	}
	n := int(float64(c.Clients)*c.AttackRatio/(1-c.AttackRatio) + 0.5)
	if n < len(c.Attack) {
		n = len(c.Attack)
	}
	return n
}

// runAttacker drives one adversarial client until done closes (the legit
// replay has finished) and records its outcomes into r.  Attack latencies
// land in "<op>+attack" op classes so the plain op rows of a mixed run
// stay legit-only — that is what lets the fairness gate compare legit p99
// across attack-free and mixed runs.
func runAttacker(c Config, profile AttackProfile, idx int, r *clientResult, done <-chan struct{}) {
	r.attack = true
	r.perSize = make(map[int][]int64)
	r.perOp = make(map[serve.Op][]int64)
	id := fmt.Sprintf("%s-%d", profile, idx)
	rng := rand.New(rand.NewSource(c.Seed*31 + 1009 + int64(idx)))

	// Each attacker is one remote host: one connection, its streams
	// multiplexed over it.  The raw-socket profiles dial per shot.
	var client *client
	if profile != AttackSlowloris {
		tr, err := c.dial()
		if err != nil {
			r.errs++
			return
		}
		defer tr.Close()
		client = newClient(tr)
	}

	// Each profile precomputes its ammunition once — payload, expected
	// digest, and for the over-limit shot the raw frame.  A real attacker
	// does not regenerate a megabyte of random bytes per shot, and
	// neither should the harness: on a shared host, per-request payload
	// generation charges the attacker's CPU bill to the very latency
	// measurement the fairness gate is taking.
	switch profile {
	case AttackFlood:
		payload, want := attackPayload(rng, 4096)
		attackLoop(c, done, c.AttackRTTUS, func(k int) { attackRequest(r, client, id, serve.OpSSL, payload, want) })
	case AttackThrash:
		// Cheap per op — the damage (and the token-bucket spend) is the
		// sheer churn rate: every full handshake evicts someone's session.
		payload, want := attackPayload(rng, 64)
		attackLoop(c, done, c.AttackRTTUS, func(k int) { attackRequest(r, client, id, serve.OpHandshake, payload, want) })
	case AttackOversize:
		// Maximum-size legal payload: priced at full per-byte cost by
		// envelope admission.  Over the limit: the header alone is
		// refused, before the listener reads any payload.  Paced 5x —
		// megabyte uploads are bandwidth-bound, not latency-bound.
		legal, legalWant := attackPayload(rng, 256<<10)
		over := overLimitFrame(id)
		attackLoop(c, done, 5*c.AttackRTTUS, func(k int) {
			if k%2 == 0 {
				attackRequest(r, client, id, serve.OpAES, legal, legalWant)
			} else {
				overLimitRequest(c, r, over)
			}
		})
	case AttackSlowloris:
		attackLoop(c, done, 0, func(k int) { slowlorisRequest(c, r, rng, id) })
	}
}

// attackPayload draws one reusable attack payload and its expected digest.
func attackPayload(rng *rand.Rand, size int) ([]byte, []byte) {
	payload := make([]byte, size)
	rng.Read(payload)
	want := hashes.MD5Sum(payload)
	return payload, want[:]
}

// preamble opens every wire connection.
var preamble = []byte{wire.Magic0, wire.Magic1, wire.Magic2, wire.Version}

// overLimitFrame builds one request header declaring a payload one byte
// over wire.MaxPayload.  The encoder refuses such a frame, so it encodes
// a legal empty-payload md5 request and rewrites the header's trailing
// payload-length field.
func overLimitFrame(id string) []byte {
	var enc wire.Encoder
	frame, err := enc.Request(nil, 1, &serve.Request{Op: serve.OpMD5, ClientID: id})
	if err != nil {
		panic(err) // a short legal request always encodes
	}
	hdrLen, n := binary.Uvarint(frame)
	hdr := frame[n : n+int(hdrLen)-1] // drop uvarint(0), the payload length
	hdr = binary.AppendUvarint(hdr, wire.MaxPayload+1)
	return append(binary.AppendUvarint(nil, uint64(len(hdr))), hdr...)
}

// attackLoop fans an attacker's request stream across AttackConcurrency
// goroutines, each firing until done closes, pacing paceUS µs between
// shots (the modeled round-trip to a remote attacker).  Attackers are
// botnet-style concurrent streams, not polite closed loops — concurrency
// under one ClientID is what pushes a single identity past its
// token-bucket rate.
func attackLoop(c Config, done <-chan struct{}, paceUS int64, issue func(k int)) {
	var wg sync.WaitGroup
	for s := 0; s < c.AttackConcurrency; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				issue(s<<20 | k)
				if paceUS > 0 {
					select {
					case <-done:
						return
					case <-time.After(time.Duration(paceUS) * time.Microsecond):
					}
				}
			}
		}(s)
	}
	wg.Wait()
}

// attackRequest issues one adversarial request with a shared precomputed
// payload and records the outcome.  The shared result is locked: one
// attacker runs several concurrent streams into the same clientResult.
func attackRequest(r *clientResult, client *client, id string, op serve.Op, payload, want []byte) {
	req := &serve.Request{Op: op, Payload: payload, ClientID: id}
	t0 := time.Now()
	resp, err := client.do(req)
	lat := time.Since(t0).Microseconds()
	recordAttackOutcome(r, op, len(payload), want, resp, err, lat)
}

// recordAttackOutcome folds one attack response into the shared result.
func recordAttackOutcome(r *clientResult, op serve.Op, size int, want []byte, resp *serve.Response, err error, lat int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		// Transport failures (a connection cut by the read timeout or by
		// a refused frame) are expected casualties of attacking a
		// defended server.
		r.errs++
		return
	}
	switch resp.Status {
	case serve.StatusOK:
		r.ok++
		r.bytes += int64(size)
		r.latencies = append(r.latencies, lat)
		r.perOp[op+"+attack"] = append(r.perOp[op+"+attack"], lat)
		if !bytes.Equal(resp.Digest, want) {
			r.mismatches++
		}
		r.baseCycles += resp.EstBaseCycles
		r.optCycles += resp.EstOptCycles
	case serve.StatusShed:
		r.shed++
		if resp.ShedReason == "throttle" {
			r.throttled++
		}
	case serve.StatusExpired:
		r.expired++
	default:
		r.errs++
	}
}

// overLimitRequest sends one over-limit header on a fresh connection.
// The listener hanging up is the expected refusal, counted as an error
// like any request the server will not serve.
func overLimitRequest(c Config, r *clientResult, frame []byte) {
	_, _ = rawRequest(c, frame, 1, 0) // the outcome is the hang-up either way
	r.mu.Lock()
	r.errs++
	r.mu.Unlock()
}

// slowlorisRequest dribbles one md5 request frame over a fresh connection
// in small timed chunks.  A listener with a read timeout disconnects the
// dribble (counted as an error here); without one the request eventually
// completes and its latency lands in the attack class.
func slowlorisRequest(c Config, r *clientResult, rng *rand.Rand, id string) {
	r.mu.Lock()
	payload := make([]byte, 32)
	rng.Read(payload)
	r.mu.Unlock()
	var enc wire.Encoder
	frame, err := enc.Request(nil, 1, &serve.Request{Op: serve.OpMD5, Payload: payload, ClientID: id})
	if err != nil {
		panic(err) // a short legal request always encodes
	}
	t0 := time.Now()
	// ~20 chunks paced across SlowlorisMS total.
	resp, err := rawRequest(c, frame, 20, time.Duration(c.SlowlorisMS)*time.Millisecond/20)
	lat := time.Since(t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil || resp.Status != serve.StatusOK {
		r.errs++
		return
	}
	r.ok++
	r.latencies = append(r.latencies, lat)
	r.perOp[serve.OpMD5+"+attack"] = append(r.perOp[serve.OpMD5+"+attack"], lat)
}

// rawRequest dials a fresh connection, writes the preamble and then frame
// in chunks pieces spaced pace apart, and parses the header of the one
// response frame it waits for.  The listener hanging up instead is an
// error.
func rawRequest(c Config, frame []byte, chunks int, pace time.Duration) (*serve.Response, error) {
	conn, err := net.DialTimeout("tcp", c.Addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(preamble); err != nil {
		return nil, err
	}
	step := (len(frame) + chunks - 1) / chunks
	for off := 0; off < len(frame); off += step {
		if _, err := conn.Write(frame[off:min(off+step, len(frame))]); err != nil {
			return nil, err
		}
		time.Sleep(pace)
	}
	br := bufio.NewReader(conn)
	hdrLen, err := binary.ReadUvarint(br)
	if err != nil || hdrLen == 0 || hdrLen > wire.MaxHeader {
		return nil, fmt.Errorf("loadgen: no response frame (%v)", err)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	var resp serve.Response
	if _, _, _, err := wire.ParseResponse(hdr, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
