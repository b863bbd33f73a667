package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"wisp/internal/serve"
	"wisp/internal/wire"
)

// Roles of the span recorders wrapped around the stack.
const (
	roleGateway = iota // wire.Handler wrapper on a gateway: serve's Submit
	roleRouter         // wire.Handler wrapper on the router: gwroute's Submit
)

// reqTrace holds one request's spans, in ns since the tracer's base.  The
// client fields are written by the request's own goroutine; the server
// fields by listener goroutines, through atomics, since the only ordering
// between the two sides is the socket.
type reqTrace struct {
	sched, rtStart, rtEnd int64 // scheduled send; client RoundTrip (the root span)
	queueUS, serviceUS    int64 // intervals the response reports
	op                    serve.Op
	resumed               bool
	batch                 int
	bytes                 int

	rtrStart, rtrEnd atomic.Int64 // router Submit
	beStart, beEnd   atomic.Int64 // the router's backend RoundTrip
	subStart, subEnd atomic.Int64 // gateway Submit
}

// tracer keeps spans in memory for a contiguous range of request IDs
// while it is on.
type tracer struct {
	base time.Time
	on   atomic.Bool
	lo   int
	reqs []reqTrace
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// arm clears the recorder for the n requests starting at ID lo and turns
// recording on.
func (t *tracer) arm(lo, n int) {
	t.lo, t.reqs = lo, make([]reqTrace, n)
	t.on.Store(true)
}

// slot returns the record for request id, or nil when it is not traced.
func (t *tracer) slot(id string) *reqTrace {
	if !t.on.Load() {
		return nil
	}
	i, err := strconv.Atoi(id)
	if err != nil || i < t.lo || i >= t.lo+len(t.reqs) {
		return nil
	}
	return &t.reqs[i-t.lo]
}

// tracedHandler records a span around every Submit of the handler it
// wraps.
type tracedHandler struct {
	wire.Handler
	tr   *tracer
	role int
}

func (h *tracedHandler) Submit(req *serve.Request) *serve.Response {
	start := h.tr.now()
	resp := h.Handler.Submit(req)
	if r := h.tr.slot(req.ID); r != nil {
		end := h.tr.now()
		if h.role == roleRouter {
			r.rtrStart.Store(start)
			r.rtrEnd.Store(end)
		} else {
			r.subStart.Store(start)
			r.subEnd.Store(end)
		}
	}
	return resp
}

// tracedTransport records a span around every backend RoundTrip the router
// makes; it is what the traced stack passes as gwroute.Config.Dial.
type tracedTransport struct {
	serve.Transport
	tr *tracer
}

func (t *tracedTransport) RoundTrip(req *serve.Request) (*serve.Response, error) {
	start := t.tr.now()
	resp, err := t.Transport.RoundTrip(req)
	if r := t.tr.slot(req.ID); r != nil {
		r.beStart.Store(start)
		r.beEnd.Store(t.tr.now())
	}
	return resp, err
}

// span is one interval of a request's span tree.
type span struct {
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the parent span; -1 for the root
}

// Layer names of the span tree.
const (
	layerWire    = "wire"
	layerGwroute = "gwroute"
	layerServe   = "serve"
	layerQueue   = "serve.queue"
	layerService = "serve.service"
)

// spans returns the request's span tree, or nil when a span is missing
// (the request failed or was not traced end to end).  The reported queue
// and service intervals are placed at the end of the gateway's Submit
// span, service last.
func (r *reqTrace) spans(routed bool) []span {
	if r.rtEnd == 0 || r.subEnd.Load() == 0 {
		return nil
	}
	out := []span{{Layer: layerWire, Start: r.rtStart, End: r.rtEnd, Parent: -1}}
	parent := 0
	if routed {
		if r.rtrEnd.Load() == 0 || r.beEnd.Load() == 0 {
			return nil
		}
		out = append(out,
			span{Layer: layerGwroute, Start: r.rtrStart.Load(), End: r.rtrEnd.Load(), Parent: 0},
			span{Layer: layerWire, Start: r.beStart.Load(), End: r.beEnd.Load(), Parent: 1})
		parent = 2
	}
	subStart, subEnd := r.subStart.Load(), r.subEnd.Load()
	out = append(out, span{Layer: layerServe, Start: subStart, End: subEnd, Parent: parent})
	sub := len(out) - 1
	svcStart := max(subStart, subEnd-r.serviceUS*1000)
	qStart := max(subStart, svcStart-r.queueUS*1000)
	return append(out,
		span{Layer: layerQueue, Start: qStart, End: svcStart, Parent: sub},
		span{Layer: layerService, Start: svcStart, End: subEnd, Parent: sub})
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		var kids [][2]int64
		for _, c := range spans {
			if c.Parent != i {
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		var covered, end int64 = 0, s.Start
		for _, k := range kids {
			lo := max(k[0], end)
			if k[1] > lo {
				covered += k[1] - lo
				end = k[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time (ns) by layer name.
func layerSelf(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, st := range selfTimes(spans) {
		out[spans[i].Layer] += st
	}
	return out
}

// writeSpans writes every traced request's span tree to path as JSON
// lines.
func writeSpans(path string, t *tracer, routed bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.reqs {
		if sp := t.reqs[i].spans(routed); sp != nil {
			line := struct {
				ID    int    `json:"id"`
				Op    string `json:"op"`
				Spans []span `json:"spans"`
			}{t.lo + i, string(t.reqs[i].op), sp}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
