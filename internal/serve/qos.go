package serve

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Per-client QoS isolation.  The gateway's currency is *estimated op cost*
// in microseconds — the same per-op service EWMAs cost-aware dispatch
// prices backlogs with — so a handshake flood and a record trickle are
// metered on one scale.  Three mechanisms compose:
//
//   - a per-client token bucket (tokens = µs of estimated work) charges
//     every arrival; clients spending faster than their refill rate are
//     throttled with a "throttle" shed before any shard sees the request;
//   - a deficit-round-robin fair queue gates dispatch once the gateway's
//     outstanding (dispatched, not yet completed) cost crosses a limit:
//     each client's flow earns a cost quantum per round, so a client with
//     hundreds of queued handshakes and a client with one record op make
//     progress in proportion to the quantum, not their queue depth;
//   - a space-saving (top-k) sketch tracks the heaviest spenders with
//     bounded memory and a one-sided error guarantee, exported via /stats.
//
// QoS engages when Config.ClientRateUS > 0; the zero value keeps the
// pre-QoS serving path byte-for-byte identical.

// tokenBucket meters one client's estimated-cost spend.  Tokens are
// microseconds of estimated work; the bucket starts full.  An op costing
// more than the whole burst is admitted when the bucket is full and drives
// the balance negative ("borrowing"), so oversized-but-legal work is
// served yet suppresses the client's rate until the debt refills.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// take refills the bucket for the elapsed wall time and tries to charge
// cost µs, reporting whether the request is admitted.  rate is tokens per
// second, burst the bucket capacity.  The clock is injected by the caller
// so refill sequences are unit-testable without sleeping.
func (b *tokenBucket) take(now time.Time, rate, burst, cost float64) bool {
	if b.last.IsZero() {
		b.tokens = burst
		b.last = now
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+rate*dt)
		b.last = now
	}
	if b.tokens < math.Min(cost, burst) {
		return false
	}
	b.tokens -= cost
	return true
}

// drrFlow is one client's FIFO within the deficit-round-robin scheduler.
type drrFlow[T any] struct {
	id      string
	items   []T
	costs   []int64
	deficit int64
	charged bool // quantum already granted for the current visit
}

// drr is a cost-based deficit-round-robin scheduler: each active flow is
// visited in round-robin order, earns `quantum` µs of deficit per visit,
// and serves queued items while its deficit covers their cost.  Emptied
// flows leave the ring and forfeit their deficit (idle clients cannot
// hoard service credit).  Not goroutine-safe; callers hold their own lock.
type drr[T any] struct {
	quantum int64
	flows   map[string]*drrFlow[T]
	ring    []*drrFlow[T]
	cur     int
	size    int
}

func newDRR[T any](quantum int64) *drr[T] {
	if quantum <= 0 {
		quantum = 1
	}
	return &drr[T]{quantum: quantum, flows: make(map[string]*drrFlow[T])}
}

func (d *drr[T]) len() int { return d.size }

// push appends one item costing cost µs to client id's flow, activating
// the flow (with zero deficit) if it was idle.
func (d *drr[T]) push(id string, v T, cost int64) {
	f, ok := d.flows[id]
	if !ok {
		f = &drrFlow[T]{id: id}
		d.flows[id] = f
		d.ring = append(d.ring, f)
	}
	f.items = append(f.items, v)
	f.costs = append(f.costs, cost)
	d.size++
}

// pop returns the next item under DRR order.  Each full lap over the ring
// adds a quantum to every flow, so even an item costing many quanta is
// eventually served (no starvation); a cheap-item flow interleaves with an
// expensive-item flow in inverse proportion to cost.
func (d *drr[T]) pop() (v T, cost int64, ok bool) {
	if d.size == 0 {
		return v, 0, false
	}
	for {
		f := d.ring[d.cur]
		if !f.charged {
			f.deficit += d.quantum
			f.charged = true
		}
		if f.deficit >= f.costs[0] {
			v, cost = f.items[0], f.costs[0]
			f.items = f.items[1:]
			f.costs = f.costs[1:]
			f.deficit -= cost
			d.size--
			if len(f.items) == 0 {
				d.ring = append(d.ring[:d.cur], d.ring[d.cur+1:]...)
				delete(d.flows, f.id)
				if len(d.ring) > 0 {
					d.cur %= len(d.ring)
				} else {
					d.cur = 0
				}
			}
			return v, cost, true
		}
		f.charged = false
		d.cur = (d.cur + 1) % len(d.ring)
	}
}

// hhEntry is one space-saving sketch counter.
type hhEntry struct {
	id    string
	count int64 // estimated total (true ≤ count)
	err   int64 // overestimate bound (count - err ≤ true)
}

// topK is the space-saving heavy-hitter sketch: at most k counters, each
// an overestimate of its key's true total with a tracked error bound.  An
// unseen key replaces the minimum counter, inheriting its value as error —
// the classic guarantee count-err ≤ true ≤ count holds for every tracked
// key, and any key whose true total exceeds the minimum counter is present.
type topK struct {
	k     int
	items map[string]*hhEntry
}

func newTopK(k int) *topK {
	if k <= 0 {
		k = 16
	}
	return &topK{k: k, items: make(map[string]*hhEntry, k)}
}

func (t *topK) offer(id string, n int64) {
	if e, ok := t.items[id]; ok {
		e.count += n
		return
	}
	if len(t.items) < t.k {
		t.items[id] = &hhEntry{id: id, count: n}
		return
	}
	var min *hhEntry
	for _, e := range t.items {
		if min == nil || e.count < min.count || (e.count == min.count && e.id < min.id) {
			min = e
		}
	}
	delete(t.items, min.id)
	t.items[id] = &hhEntry{id: id, count: min.count + n, err: min.count}
}

// snapshot returns the tracked counters sorted by descending estimate.
func (t *topK) snapshot() []HeavyHitter {
	out := make([]HeavyHitter, 0, len(t.items))
	for _, e := range t.items {
		out = append(out, HeavyHitter{ID: e.id, CostUS: e.count, ErrUS: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CostUS != out[j].CostUS {
			return out[i].CostUS > out[j].CostUS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// clientEntry is one client's exact QoS accounting: arrival/admission
// counters whose invariants (admitted = completed + shed + in-flight,
// arrived = admitted + throttled) the fuzz harness asserts, plus the
// client's token bucket.
type clientEntry struct {
	id        string
	arrived   uint64
	admitted  uint64
	completed uint64
	shed      uint64
	throttled uint64
	inflight  int64
	costUS    uint64 // estimated µs admitted (the bucket's spend)
	bucket    tokenBucket
}

// clientTable holds per-client accounting with bounded cardinality: once
// max distinct IDs are tracked, further new IDs collapse into the shared
// "~overflow" row — which means an attacker spraying random ClientIDs
// lands in one shared bucket and rate-limits itself.
type clientTable struct {
	max      int
	entries  map[string]*clientEntry
	overflow *clientEntry
}

const overflowClientID = "~overflow"

func newClientTable(max int) *clientTable {
	if max <= 0 {
		max = 4096
	}
	return &clientTable{max: max, entries: make(map[string]*clientEntry)}
}

func (t *clientTable) get(id string) *clientEntry {
	if e, ok := t.entries[id]; ok {
		return e
	}
	if len(t.entries) >= t.max {
		if t.overflow == nil {
			t.overflow = &clientEntry{id: overflowClientID}
		}
		return t.overflow
	}
	e := &clientEntry{id: id}
	t.entries[id] = e
	return e
}

// all returns every tracked entry, overflow row included.
func (t *clientTable) all() []*clientEntry {
	out := make([]*clientEntry, 0, len(t.entries)+1)
	for _, e := range t.entries {
		out = append(out, e)
	}
	if t.overflow != nil {
		out = append(out, t.overflow)
	}
	return out
}

// qosWaiter parks one Submit goroutine in the fair queue until the DRR
// scheduler grants it dispatch.
type qosWaiter struct {
	ch  chan struct{}
	est int64
}

// qos is the gateway's per-client isolation layer.
type qos struct {
	rateUS    float64 // token refill, µs of estimated work per second
	burstUS   float64 // bucket capacity
	limitUS   int64   // outstanding-cost gate before fair queueing engages
	quantumUS int64
	maxCostUS int64 // per-request estimated-cost ceiling (0 = off)

	now func() time.Time // injected for tests

	mu          sync.Mutex
	table       *clientTable
	sketch      *topK
	outstanding int64 // granted (dispatched, not yet finished) estimated µs
	waiting     *drr[*qosWaiter]
	throttled   uint64 // total bucket rejections
}

func newQoS(cfg Config) *qos {
	return &qos{
		rateUS:    float64(cfg.ClientRateUS),
		burstUS:   float64(cfg.ClientBurstUS),
		limitUS:   cfg.FairLimitUS,
		quantumUS: cfg.DRRQuantumUS,
		maxCostUS: cfg.MaxCostUS,
		now:       time.Now,
		table:     newClientTable(cfg.MaxClients),
		sketch:    newTopK(cfg.HeavyHitterK),
		waiting:   newDRR[*qosWaiter](cfg.DRRQuantumUS),
	}
}

// admit charges client id's token bucket with est µs of estimated work,
// reporting whether the request may proceed.  Either way the arrival is
// accounted and offered to the heavy-hitter sketch — the sketch ranks
// demand, not service, so a throttled flood still surfaces at the top.
func (q *qos) admit(id string, est int64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.table.get(id)
	e.arrived++
	q.sketch.offer(id, est)
	if q.maxCostUS > 0 && est > q.maxCostUS {
		// Service-granularity cap: a request this dear would monopolize a
		// worker past what DRR can equalize between flows, so it is
		// refused outright rather than letting the bucket borrow for it.
		e.throttled++
		q.throttled++
		return false
	}
	if !e.bucket.take(q.now(), q.rateUS, q.burstUS, float64(est)) {
		e.throttled++
		q.throttled++
		return false
	}
	e.admitted++
	e.inflight++
	e.costUS += uint64(est)
	return true
}

// cancel backs out one admitted request that was never dispatched — its
// payload failed to materialize after envelope preadmission, or
// validation rejected it.  The spent tokens stay spent (a client whose
// garbage passed pricing pays for the envelope it made the gateway parse)
// but the accounting closes as a shed, keeping the
// admitted = completed + shed + in-flight invariant intact.  Never touches
// outstanding: the request was not granted dispatch.
func (q *qos) cancel(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.table.get(id)
	e.inflight--
	e.shed++
}

// acquire passes the fair-queue gate: while the gateway's outstanding
// dispatched cost is under the limit the request proceeds immediately;
// beyond it the caller parks in its client's DRR flow until completions
// free capacity and the scheduler reaches its turn.
func (q *qos) acquire(id string, est int64) {
	q.mu.Lock()
	if q.outstanding < q.limitUS {
		q.outstanding += est
		q.mu.Unlock()
		return
	}
	w := &qosWaiter{ch: make(chan struct{}), est: est}
	q.waiting.push(id, w, est)
	q.mu.Unlock()
	<-w.ch
}

// finish closes out one admitted request: the outcome lands in the
// client's counters, the outstanding cost is released and freed capacity
// is granted to parked waiters in DRR order.
func (q *qos) finish(id string, est int64, status Status) {
	q.mu.Lock()
	e := q.table.get(id)
	e.inflight--
	if status == StatusShed {
		e.shed++
	} else {
		e.completed++
	}
	q.outstanding -= est
	for q.outstanding < q.limitUS {
		w, cost, ok := q.waiting.pop()
		if !ok {
			break
		}
		q.outstanding += cost
		close(w.ch)
	}
	q.mu.Unlock()
}

// HeavyHitter is one row of the space-saving sketch: CostUS estimates the
// client's total demanded cost (µs); the true total lies within
// [CostUS-ErrUS, CostUS].
type HeavyHitter struct {
	ID     string `json:"id"`
	CostUS int64  `json:"cost_us"`
	ErrUS  int64  `json:"err_us"`
}

// ClientRow is one client's exported QoS accounting.
type ClientRow struct {
	ID        string `json:"id"`
	Arrived   uint64 `json:"arrived"`
	Admitted  uint64 `json:"admitted"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Throttled uint64 `json:"throttled"`
	InFlight  int64  `json:"in_flight"`
	CostUS    uint64 `json:"cost_us"`
}

// QoSView is the /stats export of the isolation layer.
type QoSView struct {
	RateUS        int64         `json:"client_rate_us"`
	BurstUS       int64         `json:"client_burst_us"`
	LimitUS       int64         `json:"fair_limit_us"`
	QuantumUS     int64         `json:"drr_quantum_us"`
	OutstandingUS int64         `json:"outstanding_us"`
	FairWaiting   int           `json:"fair_waiting"`
	Throttled     uint64        `json:"throttled"`
	Clients       []ClientRow   `json:"clients"`
	HeavyHitters  []HeavyHitter `json:"heavy_hitters"`
}

// maxStatsClients bounds the per-client rows exported via /stats; the
// heaviest spenders sort first so the table stays readable under an
// ID-spray attack.
const maxStatsClients = 32

// view snapshots the QoS layer for /stats.
func (q *qos) view() *QoSView {
	q.mu.Lock()
	defer q.mu.Unlock()
	v := &QoSView{
		RateUS:        int64(q.rateUS),
		BurstUS:       int64(q.burstUS),
		LimitUS:       q.limitUS,
		QuantumUS:     q.quantumUS,
		OutstandingUS: q.outstanding,
		FairWaiting:   q.waiting.len(),
		Throttled:     q.throttled,
		HeavyHitters:  q.sketch.snapshot(),
	}
	entries := q.table.all()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].costUS != entries[j].costUS {
			return entries[i].costUS > entries[j].costUS
		}
		return entries[i].id < entries[j].id
	})
	if len(entries) > maxStatsClients {
		entries = entries[:maxStatsClients]
	}
	for _, e := range entries {
		v.Clients = append(v.Clients, ClientRow{
			ID: e.id, Arrived: e.arrived, Admitted: e.admitted,
			Completed: e.completed, Shed: e.shed, Throttled: e.throttled,
			InFlight: e.inflight, CostUS: e.costUS,
		})
	}
	return v
}

// checkInvariants verifies every tracked client's accounting identities;
// it backs the unit and fuzz tests and returns the first violation.
func (q *qos) checkInvariants() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range q.table.all() {
		if e.arrived != e.admitted+e.throttled {
			return invalidf("qos", "client %q: arrived %d != admitted %d + throttled %d",
				e.id, e.arrived, e.admitted, e.throttled)
		}
		if e.inflight < 0 {
			return invalidf("qos", "client %q: negative in-flight %d", e.id, e.inflight)
		}
		if e.admitted != e.completed+e.shed+uint64(e.inflight) {
			return invalidf("qos", "client %q: admitted %d != completed %d + shed %d + in-flight %d",
				e.id, e.admitted, e.completed, e.shed, e.inflight)
		}
	}
	return nil
}
