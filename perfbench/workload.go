package main

import (
	"crypto/hmac"
	"crypto/md5"
	"crypto/sha1"
	"math"
	"math/rand"
	"strconv"

	"wisp/internal/serve"
)

// opSpec is one kind of request a workload sends.
type opSpec struct {
	op     serve.Op
	size   int  // payload bytes
	resume bool // offer the client's last session ID for an abbreviated handshake
}

// workload is one traffic mix and the serving topology it runs against.
type workload struct {
	name string
	// backends is the number of gateways; with routed set a gwroute.Router
	// on its own wire listener fronts them, otherwise the client talks to
	// the single gateway directly.
	backends int
	shards   int // serve.Config.Shards of every gateway
	routed   bool
	// deck is one stratified block of the op mix: the stream is a sequence
	// of seeded shuffles of it, so every seed sends the same composition.
	deck []opSpec
	// rate is the open-loop arrival rate (requests per second).
	rate float64
	// inflight is the closed-loop concurrency.
	inflight int
	clients  int
	// sessions makes every client run one full handshake during warm-up
	// and offer the echoed session ID on its resumes.
	sessions bool
}

// recordSize is the SSL record size requests ask for (the Figure 8 unit).
const recordSize = 1024

func repeat(n int, s opSpec) []opSpec {
	out := make([]opSpec, n)
	for i := range out {
		out[i] = s
	}
	return out
}

func concat(parts ...[]opSpec) []opSpec {
	var out []opSpec
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var workloads = []*workload{
	{
		name: "handshake-mix", backends: 1, shards: 2,
		deck: concat(
			repeat(4, opSpec{op: serve.OpHandshake, size: 64}),
			repeat(4, opSpec{op: serve.OpHandshake, size: 64, resume: true}),
			repeat(2, opSpec{op: serve.OpRSADecrypt, size: 64}),
		),
		rate: 1500, inflight: 16, clients: 256, sessions: true,
	},
	{
		name: "bulk-record", backends: 1, shards: 2,
		deck: concat(
			repeat(2, opSpec{op: serve.OpSSL, size: 1 << 10, resume: true}),
			repeat(2, opSpec{op: serve.OpSSL, size: 4 << 10, resume: true}),
			repeat(1, opSpec{op: serve.OpSSL, size: 16 << 10, resume: true}),
			repeat(3, opSpec{op: serve.OpRecord, size: 1 << 10}),
		),
		rate: 56, inflight: 8, clients: 256, sessions: true,
	},
	{
		name: "small-ops-gw", backends: 2, shards: 1, routed: true,
		deck: []opSpec{
			{op: serve.OpMD5, size: 64},
			{op: serve.OpSHA1, size: 64},
			{op: serve.OpHMACSHA1, size: 64},
			{op: serve.OpAES, size: 64},
		},
		rate: 2500, inflight: 16, clients: 256,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// item is one pre-generated request with the answers a correct server
// must give for it.
type item struct {
	id      string
	spec    opSpec
	client  int
	payload []byte
	digest  [md5.Size]byte
	result  []byte // expected Result for md5, sha1 and hmac-sha1; nil otherwise
	records int    // expected Records for ssl and record ops
}

// generator turns a seed into the workload's request streams.  Every
// byte of every request except the session ID a resume offers (which
// the server chose) is fixed by the seed.
type generator struct {
	w       *workload
	rng     *rand.Rand
	next    int      // next request index; IDs are unique within a run
	hmacKey [][]byte // per-client HMAC key for hmac-sha1
}

func newGenerator(w *workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed))}
	g.hmacKey = make([][]byte, w.clients)
	for i := range g.hmacKey {
		g.hmacKey[i] = make([]byte, 16)
		g.rng.Read(g.hmacKey[i])
	}
	return g
}

func clientID(c int) string { return "c" + strconv.Itoa(c) }

// stream returns n requests drawn block by block from seeded shuffles of
// the workload's deck, each with a uniformly chosen client.
func (g *generator) stream(n int) []item {
	items := make([]item, 0, n)
	deck := append([]opSpec(nil), g.w.deck...)
	for len(items) < n {
		g.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, s := range deck {
			if len(items) == n {
				break
			}
			items = append(items, g.item(s, g.rng.Intn(g.w.clients)))
		}
	}
	return items
}

// handshakes returns one full handshake per client, in client order.
func (g *generator) handshakes() []item {
	items := make([]item, g.w.clients)
	for c := range items {
		items[c] = g.item(opSpec{op: serve.OpHandshake, size: 64}, c)
	}
	return items
}

func (g *generator) item(s opSpec, client int) item {
	it := item{id: strconv.Itoa(g.next), spec: s, client: client, payload: make([]byte, s.size)}
	g.next++
	g.rng.Read(it.payload)
	it.digest = md5.Sum(it.payload)
	switch s.op {
	case serve.OpMD5:
		it.result = it.digest[:]
	case serve.OpSHA1:
		sum := sha1.Sum(it.payload)
		it.result = sum[:]
	case serve.OpHMACSHA1:
		m := hmac.New(sha1.New, g.hmacKey[client])
		m.Write(it.payload)
		it.result = m.Sum(nil)
	case serve.OpSSL, serve.OpRecord:
		it.records = (s.size + recordSize - 1) / recordSize
	}
	return it
}

// schedule returns n seeded Poisson arrival offsets (ns) at the given
// rate.  The gaps are rescaled so the last arrival lands exactly at
// n/rate: every seed offers the same mean rate, only the arrival pattern
// changes.
func (g *generator) schedule(n int, rate float64) []int64 {
	at := make([]float64, n)
	var t float64
	for i := range at {
		t += g.rng.ExpFloat64()
		at[i] = t
	}
	scale := float64(n) / rate / t * 1e9
	out := make([]int64, n)
	for i, a := range at {
		out[i] = int64(math.Round(a * scale))
	}
	return out
}
