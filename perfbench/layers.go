package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"wisp"
	"wisp/internal/blockmode"
	"wisp/internal/descipher"
	"wisp/internal/gwroute"
	"wisp/internal/hashes"
	"wisp/internal/mpn"
	"wisp/internal/mpz"
	"wisp/internal/rsakey"
	"wisp/internal/serve"
	"wisp/internal/ssl"
	"wisp/internal/wire"
)

// cost is one replayed layer operation: median host ns per call over the
// measurement rounds, and heap allocations and bytes per call.
type cost struct {
	ns, allocs, bytes float64
}

// measure calls fn in rounds sized to fill about budget and returns its
// cost.  The first call warms grow-once scratch and caches.
func measure(budget time.Duration, fn func()) cost {
	const rounds = 5
	fn()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= budget/(2*rounds) || n >= 1<<24 {
			break
		}
		n *= 2
	}
	ns := make([]float64, 0, rounds)
	a0, b0 := heapAllocs()
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		ns = append(ns, float64(time.Since(start))/float64(n))
	}
	a1, b1 := heapAllocs()
	calls := float64(rounds * n)
	return cost{ns: median(ns), allocs: float64(a1-a0) / calls, bytes: float64(b1-b0) / calls}
}

// perKB rescales a cost measured over a pass of total bytes to one KiB.
func (c cost) perKB(total int) cost {
	f := 1024 / float64(total)
	return cost{ns: c.ns * f, allocs: c.allocs * f, bytes: c.bytes * f}
}

// gatewayKey regenerates the key a default-config gateway serves with:
// serve.NewGateway draws it first from a stream seeded with Config.Seed
// (default 1) at Config.RSABits (default 512).
func gatewayKey() (*rsakey.PrivateKey, error) {
	return rsakey.GenerateKey(rand.New(rand.NewSource(1)), 512)
}

// replayInput is what the layer replays take from the workload run.
type replayInput struct {
	items  []item   // the traced phase's requests
	rsaCTs [][]byte // ciphertexts the gateway returned for rsa-decrypt
	width  int      // realized RSA batch width (1 when nothing was batched)
	seed   int64
}

// layerCosts holds every replayed layer measurement.
type layerCosts struct {
	montRedc, montRedcLanes2          cost
	modExp, batchExpLane              cost
	padDecrypt, padDecryptBatchLane   cost
	fullHandshake, resume             cost
	recordRT, tdesCBC, hmacMD5        cost // per KiB of the workload's record payloads
	encode64, encode16K               cost
	parse64, parse16K                 cost
	recordBytes                       int // bytes per record replay pass
	limbs                             int
	gwSelfUS, gwBackendUS, gwPickSkew float64 // router replay against stub backends
	issRSABase, issRSAOpt             float64 // xt32 cycles per RSA decrypt
	issTDESBase, issTDESOpt, issMD5   float64 // xt32 cycles per byte
}

// replayLayers times the layers below serve, plus wire framing, on the
// workload's own inputs: the gateway key, its payload sizes and its
// realized batch width.  budget bounds each measurement.
func replayLayers(in replayInput, budget time.Duration, routerReplay bool) (*layerCosts, error) {
	key, err := gatewayKey()
	if err != nil {
		return nil, err
	}
	lc := &layerCosts{}
	rng := rand.New(rand.NewSource(in.seed))
	eng := rsakey.DefaultEngine(mpz.NewCtx(nil), 64, 0)
	cts := in.rsaCTs
	if len(cts) == 0 {
		// No decrypts in this workload: wrap its own payload digests.
		for i := 0; i < 16 && i < len(in.items); i++ {
			ct, err := eng.PadEncrypt(rng, &key.PublicKey, in.items[i].digest[:])
			if err != nil {
				return nil, err
			}
			cts = append(cts, ct)
		}
	}
	for _, ct := range cts {
		if _, err := eng.PadDecrypt(key, ct); err != nil {
			return nil, fmt.Errorf("replay key does not open the gateway's ciphertexts: %w", err)
		}
	}
	k := max(in.width, 1)
	for len(cts) < k {
		cts = append(cts, cts...)
	}

	// mpn and mpz at the CRT prime p, operands from the ciphertexts.
	p := key.P
	n := len(p.Limbs())
	lc.limbs = n
	residue := func(ct []byte) *mpz.Int { return mpz.Mod(mpz.FromBytes(ct), p) }
	limbs := func(x *mpz.Int) mpn.Nat {
		out := make(mpn.Nat, n)
		copy(out, x.Limbs())
		return out
	}
	m := limbs(p)
	mInv := negInv(m[0])
	x0, x1 := limbs(residue(cts[0])), limbs(residue(cts[len(cts)-1]))
	t0, t1 := make(mpn.Nat, 2*n+2), make(mpn.Nat, 2*n+2)
	lc.montRedc = measure(budget, func() {
		clear(t0)
		mpn.MontRedc(t0, x0, x1, m, mInv)
	})
	ts, xs, ys := []mpn.Nat{t0, t1}, []mpn.Nat{x0, x1}, []mpn.Nat{x1, x0}
	lc.montRedcLanes2 = measure(budget, func() {
		clear(t0)
		clear(t1)
		mpn.MontRedcLanes(ts, xs, ys, m, mInv)
	})
	ctx := mpz.NewCtx(nil)
	exp, err := ctx.NewExp(rsakey.DefaultExpConfig, p)
	if err != nil {
		return nil, err
	}
	base := residue(cts[0])
	lc.modExp = measure(budget, func() { exp.Exp(base, key.Dp) })
	bexp, err := ctx.NewBatchExp(rsakey.DefaultExpConfig, p)
	if err != nil {
		return nil, err
	}
	bases, exps := make([]*mpz.Int, k), make([]*mpz.Int, k)
	for i := range bases {
		bases[i], exps[i] = residue(cts[i]), key.Dp
	}
	lc.batchExpLane = perLane(measure(budget, func() { bexp.ExpBatch(bases, exps) }), k)

	// rsakey: the padded decrypt the serving path runs, scalar and batched.
	next := 0
	lc.padDecrypt = measure(budget, func() {
		eng.PadDecrypt(key, cts[next%len(cts)])
		next++
	})
	lc.padDecryptBatchLane = perLane(measure(budget, func() { eng.PadDecryptBatch(key, cts[:k]) }), k)

	// ssl: handshakes against a session cache whose premaster unwrap goes
	// through the engine, as a gateway shard's does.
	sc := ssl.NewSessionCache(4096, 10*time.Minute).WithDecrypt(eng.PadDecrypt)
	var herr error
	lc.fullHandshake = measure(budget, func() {
		cli, srv, _, err := ssl.HandshakePair(rng, key, sc)
		if err != nil {
			herr = err
			return
		}
		cli.Close()
		srv.Close()
	})
	cli, srv, cs, err := ssl.HandshakePair(rng, key, sc)
	if err != nil {
		return nil, err
	}
	lc.resume = measure(budget, func() {
		c, s, _, err := ssl.ResumePair(rng, key, sc, cs)
		if err != nil {
			herr = err
			return
		}
		c.Close()
		s.Close()
	})
	if herr != nil {
		return nil, herr
	}

	// Record layer and its primitives over the workload's payloads, cut
	// into records as the gateway cuts them.
	var chunks [][]byte
	for _, it := range sample(in.items, 16) {
		for off := 0; off < len(it.payload); off += recordSize {
			chunks = append(chunks, it.payload[off:min(off+recordSize, len(it.payload))])
		}
	}
	for _, c := range chunks {
		lc.recordBytes += len(c)
	}
	lc.recordRT = measure(budget, func() {
		for _, c := range chunks {
			rec, err := cli.Seal(c)
			if err == nil {
				_, err = srv.Open(rec)
			}
			if err != nil {
				herr = err
			}
		}
	}).perKB(lc.recordBytes)
	cli.Close()
	srv.Close()
	desKey := make([]byte, 24)
	rng.Read(desKey)
	tdes, err := descipher.NewTripleCipher(desKey)
	if err != nil {
		return nil, err
	}
	iv := make([]byte, descipher.BlockSize)
	buf := make([]byte, recordSize+descipher.BlockSize)
	out := make([]byte, len(buf))
	lc.tdesCBC = measure(budget, func() {
		for _, c := range chunks {
			padded := buf[:(len(c)/descipher.BlockSize+1)*descipher.BlockSize]
			copy(padded, c)
			if err := blockmode.CBCEncrypt(tdes, iv, padded, padded); err != nil {
				herr = err
			}
			if err := blockmode.CBCDecrypt(tdes, iv, out[:len(padded)], padded); err != nil {
				herr = err
			}
		}
	}).perKB(lc.recordBytes)
	mac := hashes.NewHMAC(func() hashes.Hash { return hashes.NewMD5() }, desKey[:16])
	sum := make([]byte, 0, hashes.MD5Size)
	lc.hmacMD5 = measure(budget, func() {
		for _, c := range chunks {
			mac.Reset()
			mac.Write(c)
			sum = mac.Sum(sum[:0])
		}
	}).perKB(lc.recordBytes)
	if herr != nil {
		return nil, herr
	}

	// wire framing at the smallest and largest payloads of the suite.
	for _, size := range []int{64, 16 << 10} {
		req := &serve.Request{ID: "1000000", Op: serve.OpSSL, Payload: make([]byte, size), ClientID: clientID(255), RecordSize: recordSize}
		enc, parse, err := replayWire(req, budget)
		if err != nil {
			return nil, err
		}
		if size == 64 {
			lc.encode64, lc.parse64 = enc, parse
		} else {
			lc.encode16K, lc.parse16K = enc, parse
		}
	}
	if routerReplay {
		if err := replayRouter(lc, in.items, budget); err != nil {
			return nil, err
		}
	}
	return lc, nil
}

// negInv returns -m0⁻¹ mod 2³² for odd m0 (Newton iteration).
func negInv(m0 mpn.Limb) mpn.Limb {
	inv := m0
	for i := 0; i < 5; i++ {
		inv *= 2 - m0*inv
	}
	return -inv
}

func perLane(c cost, k int) cost {
	f := float64(k)
	return cost{ns: c.ns / f, allocs: c.allocs / f, bytes: c.bytes / f}
}

// sample returns up to n items spread evenly over items.
func sample(items []item, n int) []item {
	if len(items) <= n {
		return items
	}
	out := make([]item, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, items[i*len(items)/n])
	}
	return out
}

// replayWire times encoding one request frame and parsing it back: the
// header parse plus the payload copy a listener makes.
func replayWire(req *serve.Request, budget time.Duration) (enc, parse cost, err error) {
	var e wire.Encoder
	var d wire.Decoder
	var frame []byte
	enc = measure(budget, func() { frame, err = e.Request(frame[:0], 1, req) })
	if err != nil {
		return
	}
	hlen, off := binary.Uvarint(frame)
	hdr, body := frame[off:off+int(hlen)], frame[off+int(hlen):]
	var head wire.ReqHead
	payload := make([]byte, len(body))
	parse = measure(budget, func() {
		if perr := d.ParseRequest(hdr, &head); perr != nil {
			err = perr
		}
		copy(payload[:head.PayloadLen], body)
	})
	return
}

// stubTransport answers every request with a canned OK response, so the
// router replay times the router alone.
type stubTransport struct{}

func (stubTransport) RoundTrip(req *serve.Request) (*serve.Response, error) {
	return &serve.Response{ID: req.ID, Op: req.Op, Status: serve.StatusOK}, nil
}
func (stubTransport) Stats() (*serve.Stats, error) { return &serve.Stats{}, nil }
func (stubTransport) Healthy() bool                { return true }
func (stubTransport) Close() error                 { return nil }

// replayRouter runs the workload's requests through a gwroute.Router over
// two stub backends, for workloads whose stack has no router.  The
// router's self time is its Submit minus the stub's RoundTrip.
func replayRouter(lc *layerCosts, items []item, budget time.Duration) error {
	r, err := gwroute.NewRouter(gwroute.Config{
		Backends: []string{"backend-a", "backend-b"},
		Dial:     func(string) (serve.Transport, error) { return stubTransport{}, nil },
	})
	if err != nil {
		return err
	}
	defer r.Close()
	reqs := make([]*serve.Request, len(items))
	for i := range items {
		it := &items[i]
		reqs[i] = &serve.Request{ID: it.id, Op: it.spec.op, Payload: it.payload,
			ClientID: clientID(it.client), Resume: it.spec.resume}
	}
	next := 0
	submit := measure(budget, func() {
		r.Submit(reqs[next%len(reqs)])
		next++
	})
	rt := measure(budget, func() {
		stubTransport{}.RoundTrip(reqs[next%len(reqs)])
		next++
	})
	lc.gwSelfUS = (submit.ns - rt.ns) / 1e3
	lc.gwBackendUS = rt.ns / 1e3
	lc.gwPickSkew = pickSkew(r.Stats(), nil)
	return nil
}

// pickSkew is the most backend picks over the fewest, counted since the
// snapshot before (nil: since the router started).
func pickSkew(now, before *gwroute.RouterStats) float64 {
	lo, hi := -1.0, 0.0
	for i, n := range now.Nodes {
		picks := float64(n.Picks)
		if before != nil {
			picks -= float64(before.Nodes[i].Picks)
		}
		hi = max(hi, picks)
		if lo < 0 || picks < lo {
			lo = picks
		}
	}
	return ratio(hi, lo)
}

// iss reads the xt32 ISS counts for the layers the platform models, at
// the gateway's 512-bit key.
func (lc *layerCosts) iss() error {
	p, err := wisp.New(wisp.Options{RSABits: 512})
	if err != nil {
		return err
	}
	rsa, err := p.MeasureRSADecrypt()
	if err != nil {
		return err
	}
	tdes, err := p.Measure3DES()
	if err != nil {
		return err
	}
	md5, err := p.MeasureMD5()
	if err != nil {
		return err
	}
	lc.issRSABase, lc.issRSAOpt = rsa.Base, rsa.Optimized
	lc.issTDESBase, lc.issTDESOpt, lc.issMD5 = tdes.Base, tdes.Optimized, md5
	return nil
}
