package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"wisp/internal/gwroute"
	"wisp/internal/serve"
)

// outDir holds the traced run's span and ledger files, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// genLagBoundUS is the generator lateness (p99) above which a run's
// open-loop latencies are not trusted.  The generator shares the process
// with the stack, so it waits for a free processor: up to one scheduler
// preemption slice (10 ms) behind a long record op.
const genLagBoundUS = 25000

// snapshot is the stack's counters at one instant.
type snapshot struct {
	gateways []serve.Stats
	router   *gwroute.RouterStats
}

func (s *stack) snapshot() snapshot {
	var sn snapshot
	for _, g := range s.gateways {
		sn.gateways = append(sn.gateways, g.Stats())
	}
	if s.router != nil {
		sn.router = s.router.Stats()
	}
	return sn
}

// serveDelta sums the gateways' counter movement between two snapshots.
type serveDelta struct {
	batched, scalar, widthSum, widthCalls float64
	steals, sheds                         float64
	preHits, preMisses                    float64
}

func diff(before, after snapshot) serveDelta {
	var d serveDelta
	for i, a := range after.gateways {
		b := before.gateways[i]
		d.batched += float64(a.RSAOpsBatched - b.RSAOpsBatched)
		d.scalar += float64(a.RSAOpsScalar - b.RSAOpsScalar)
		d.widthSum += a.RSABatchWidth.Sum - b.RSABatchWidth.Sum
		d.widthCalls += float64(a.RSABatchWidth.Count - b.RSABatchWidth.Count)
		d.steals += float64(a.Steals - b.Steals)
		d.sheds += float64(a.Shed - b.Shed)
		if a.Precompute != nil && b.Precompute != nil {
			d.preHits += float64(a.Precompute.Hits - b.Precompute.Hits)
			d.preMisses += float64(a.Precompute.Misses - b.Precompute.Misses)
		}
	}
	return d
}

// runTraced measures the per-layer metrics: an untraced and a traced
// open-loop phase of a quarter of the seconds each (their latency ratio is
// the tracing overhead), then replays of the layers below serve on the
// workload's own inputs for the remaining half.
func runTraced(o options) (*result, error) {
	quarter := o.seconds / 4
	in := generate(o, 2, quarter, 0)
	tr := newTracer()
	r, err := start(o, in, tr)
	if err != nil {
		return nil, err
	}
	s, c := r.s, r.c
	plain := c.openLoop(in.open[0], in.sched[0])
	before := s.snapshot()
	lo, err := strconv.Atoi(in.open[1][0].id)
	if err != nil {
		return nil, err
	}
	tr.arm(lo, len(in.open[1]))
	c.tr = tr
	traced := c.openLoop(in.open[1], in.sched[1])
	c.tr = nil
	tr.on.Store(false)
	after := s.snapshot()
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	total := newTally()
	total.add(plain.t)
	total.add(traced.t)

	d := diff(before, after)
	width := 1.0
	if d.widthCalls > 0 {
		width = d.widthSum / d.widthCalls
	}
	ref := meanDuration([]time.Duration{refKernel(o.procs), refKernel(o.procs), refKernel(o.procs)})
	cts := append(plain.t.rsaCTs, traced.t.rsaCTs...)
	budget := secs(o.seconds/2) / 20
	lc, err := replayLayers(replayInput{items: in.open[1], rsaCTs: cts, width: int(math.Round(width)), seed: o.seed},
		budget, !o.w.routed)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	if err := lc.iss(); err != nil {
		return nil, fmt.Errorf("ISS counts: %w", err)
	}

	sp := spanStats(tr, o.w.routed, lc)
	if o.w.routed {
		lc.gwSelfUS, lc.gwBackendUS = sp.gwSelf, sp.backend
		lc.gwPickSkew = pickSkew(after.router, before.router)
	}
	plainP50 := percentile(append([]float64(nil), plain.lat...), 50)
	tracedP50 := percentile(append([]float64(nil), traced.lat...), 50)
	lagP99 := percentile(traced.lagUS, 99)
	m := map[string]metric{
		"mpn.montredc_ns":                         {lc.montRedc.ns, "ns"},
		"mpn.montredc_lanes2_ns":                  {lc.montRedcLanes2.ns, "ns"},
		"mpz.modexp_ns":                           {lc.modExp.ns, "ns"},
		"mpz.modexp_allocs":                       {lc.modExp.allocs, "count"},
		"mpz.batchexp_lane_ns":                    {lc.batchExpLane.ns, "ns"},
		"rsakey.pad_decrypt_ns":                   {lc.padDecrypt.ns, "ns"},
		"rsakey.pad_decrypt_batch_lane_ns":        {lc.padDecryptBatchLane.ns, "ns"},
		"rsakey.precompute_hit_ratio":             {ratio(d.preHits, d.preHits+d.preMisses), "ratio"},
		"ssl.full_handshake_ns":                   {lc.fullHandshake.ns, "ns"},
		"ssl.full_handshake_allocs":               {lc.fullHandshake.allocs, "count"},
		"ssl.resume_ns":                           {lc.resume.ns, "ns"},
		"ssl.resume_allocs":                       {lc.resume.allocs, "count"},
		"ssl.session_hit_ratio":                   {ratio(float64(traced.t.resumed), float64(traced.t.resumeAsked)), "ratio"},
		"ssl.record_rt_ns_per_kb":                 {lc.recordRT.ns, "ns"},
		"descipher.tdes_cbc_ns_per_kb":            {lc.tdesCBC.ns, "ns"},
		"hashes.hmac_md5_ns_per_kb":               {lc.hmacMD5.ns, "ns"},
		"serve.submit_p50_us":                     {sp.submitP50, "us"},
		"serve.submit_p99_us":                     {sp.submitP99, "us"},
		"serve.queue_p50_us":                      {sp.queueP50, "us"},
		"serve.queue_p99_us":                      {sp.queueP99, "us"},
		"serve.service_p50_us":                    {sp.serviceP50, "us"},
		"serve.self_p50_us":                       {sp.serveSelf, "us"},
		"serve.rsa_batched_ratio":                 {ratio(d.batched, d.batched+d.scalar), "ratio"},
		"serve.batch_width_mean":                  {width, "count"},
		"serve.steals":                            {d.steals, "count"},
		"serve.sheds":                             {d.sheds, "count"},
		"wire.hop_p50_us":                         {sp.hop, "us"},
		"wire.encode_request_64b_ns":              {lc.encode64.ns, "ns"},
		"wire.encode_request_16kb_ns":             {lc.encode16K.ns, "ns"},
		"wire.parse_request_64b_ns":               {lc.parse64.ns, "ns"},
		"wire.parse_request_16kb_ns":              {lc.parse16K.ns, "ns"},
		"gwroute.self_p50_us":                     {lc.gwSelfUS, "us"},
		"gwroute.backend_rtt_p50_us":              {lc.gwBackendUS, "us"},
		"gwroute.pick_skew":                       {lc.gwPickSkew, "ratio"},
		"rsakey.iss_decrypt_cycles_base":          {lc.issRSABase, "cycles"},
		"rsakey.iss_decrypt_cycles_opt":           {lc.issRSAOpt, "cycles"},
		"descipher.iss_tdes_cycles_per_byte_base": {lc.issTDESBase, "cycles/B"},
		"descipher.iss_tdes_cycles_per_byte_opt":  {lc.issTDESOpt, "cycles/B"},
		"hashes.iss_md5_cycles_per_byte":          {lc.issMD5, "cycles/B"},
		"bench.gen_lag_p99_us":                    {lagP99, "us"},
		"bench.unattributed_p50_us":               {sp.unattributed, "us"},
		"bench.trace_overhead_ratio":              {ratio(finite(tracedP50), finite(plainP50)), "ratio"},
		"bench.traced_samples":                    {float64(sp.n), "count"},
		"bench.ref_kernel_ms":                     {ms(ref), "ms"},
	}
	fmt.Fprintf(o.out, "open loop: %.0f req/s Poisson; untraced latency p50 %.1f us, traced p50 %.1f us over %d traced requests\n",
		o.w.rate, plainP50, tracedP50, sp.n)
	if lagP99 > genLagBoundUS {
		fmt.Fprintf(o.out, "warning: generator lag p99 %.0f us exceeds %d us; this run's latencies are invalid\n", lagP99, genLagBoundUS)
	}
	rows := ledger(o.w, lc, sp, width)
	printLedger(o.out, o.w.name, rows)
	printMetrics(o.out, m)
	if err := writeOutputs(o, tr, rows); err != nil {
		return nil, err
	}
	return finish(o.out, total, r.warm, m), nil
}

// spanSummary is the traced phase's span arithmetic, in µs.
type spanSummary struct {
	n                               int
	submitP50, submitP99            float64
	queueP50, queueP99, serviceP50  float64
	serveSelf, hop, gwSelf, backend float64
	unattributed                    float64
}

// spanStats derives the per-layer span metrics from the traced requests.
// The unattributed time of a request is its end-to-end latency (from its
// scheduled send) minus the self times of wire, gwroute and serve, its
// queue time, and the replayed cost of its op's crypto.
func spanStats(tr *tracer, routed bool, lc *layerCosts) spanSummary {
	var submit, queue, service, serveSelf, hop, gwSelf, backend, unattr []float64
	for i := range tr.reqs {
		r := &tr.reqs[i]
		sp := r.spans(routed)
		if sp == nil {
			continue
		}
		self := layerSelf(sp)
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		sub := sp[len(sp)-3]
		submit = append(submit, us(sub.End-sub.Start))
		queue = append(queue, us(self[layerQueue]))
		service = append(service, us(self[layerService]))
		serveSelf = append(serveSelf, us(self[layerServe]))
		hop = append(hop, us(self[layerWire]))
		if routed {
			gwSelf = append(gwSelf, us(self[layerGwroute]))
			backend = append(backend, us(sp[2].End-sp[2].Start))
		}
		layers := self[layerWire] + self[layerGwroute] + self[layerServe] + self[layerQueue]
		unattr = append(unattr, us(r.rtEnd-r.sched-layers)-modeledServiceUS(r, lc))
	}
	return spanSummary{
		n:         len(submit),
		submitP50: percentile(submit, 50), submitP99: percentile(submit, 99),
		queueP50: percentile(queue, 50), queueP99: percentile(queue, 99),
		serviceP50:   percentile(service, 50),
		serveSelf:    percentile(serveSelf, 50),
		hop:          percentile(hop, 50),
		gwSelf:       percentile(gwSelf, 50),
		backend:      percentile(backend, 50),
		unattributed: percentile(unattr, 50),
	}
}

// modeledServiceUS is what the replayed layers say a request's crypto
// costs.  Ops no replay covers (digests, HMAC-SHA1, AES) count as 0.
func modeledServiceUS(r *reqTrace, lc *layerCosts) float64 {
	handshake := lc.fullHandshake.ns
	if r.resumed {
		handshake = lc.resume.ns
	}
	kb := float64(r.bytes) / 1024
	var ns float64
	switch r.op {
	case serve.OpHandshake:
		ns = handshake
	case serve.OpSSL:
		ns = handshake + lc.recordRT.ns*kb
	case serve.OpRecord:
		ns = lc.recordRT.ns * kb
	case serve.OpRSADecrypt:
		ns = lc.padDecrypt.ns
		if r.batch > 1 {
			ns = lc.padDecryptBatchLane.ns
		}
	}
	return ns / 1e3
}

// ledgerRow is one layer of the ledger.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	What   string  `json:"what"`
	NS     float64 `json:"host_ns_per_op"`
	Allocs float64 `json:"allocs_per_op"` // -1: not measured at this layer
	Bytes  float64 `json:"bytes_per_op"`  // -1: not measured at this layer
	ISS    string  `json:"iss_cycles,omitempty"`
	Source string  `json:"source"` // "replay" or "span"
}

func ledger(w *workload, lc *layerCosts, sp spanSummary, width float64) []ledgerRow {
	k := max(1, int(math.Round(width)))
	row := func(layer, what string, c cost, iss string) ledgerRow {
		return ledgerRow{Layer: layer, What: what, NS: c.ns, Allocs: c.allocs, Bytes: c.bytes, ISS: iss, Source: "replay"}
	}
	spanRow := func(layer, what string, us float64) ledgerRow {
		return ledgerRow{Layer: layer, What: what, NS: us * 1e3, Allocs: -1, Bytes: -1, Source: "span"}
	}
	gw := spanRow("gwroute", "self p50", lc.gwSelfUS)
	if !w.routed {
		gw = ledgerRow{Layer: "gwroute", What: "self, 2 stub backends", NS: lc.gwSelfUS * 1e3, Allocs: -1, Bytes: -1, Source: "replay"}
	}
	return []ledgerRow{
		row("mpn", fmt.Sprintf("MontRedc n=%d", lc.limbs), lc.montRedc, ""),
		row("mpn", fmt.Sprintf("MontRedcLanes k=2 n=%d", lc.limbs), lc.montRedcLanes2, ""),
		row("mpz", "Exponentiator.Exp c^dp mod p", lc.modExp, ""),
		row("mpz", fmt.Sprintf("BatchExp.ExpBatch per lane k=%d", k), lc.batchExpLane, ""),
		row("rsakey", "Engine.PadDecrypt", lc.padDecrypt,
			fmt.Sprintf("base %.0f / opt %.0f per op", lc.issRSABase, lc.issRSAOpt)),
		row("rsakey", fmt.Sprintf("Engine.PadDecryptBatch per lane k=%d", k), lc.padDecryptBatchLane, ""),
		row("ssl", "HandshakePair (full)", lc.fullHandshake, ""),
		row("ssl", "ResumePair", lc.resume, ""),
		row("ssl", "Session.Seal+Open per KiB", lc.recordRT, ""),
		row("descipher", "3DES-CBC enc+dec per KiB", lc.tdesCBC,
			fmt.Sprintf("base %.0f / opt %.0f per KiB", lc.issTDESBase*1024, lc.issTDESOpt*1024)),
		row("hashes", "HMAC-MD5 per KiB", lc.hmacMD5, fmt.Sprintf("MD5 %.0f per KiB", lc.issMD5*1024)),
		row("wire", "Encoder.Request 64 B", lc.encode64, ""),
		row("wire", "Encoder.Request 16 KiB", lc.encode16K, ""),
		row("wire", "Decoder.ParseRequest+body 64 B", lc.parse64, ""),
		row("wire", "Decoder.ParseRequest+body 16 KiB", lc.parse16K, ""),
		spanRow("wire", "hop self p50", sp.hop),
		gw,
		spanRow("serve", "self p50", sp.serveSelf),
		spanRow("serve", "queue p50", sp.queueP50),
		spanRow("serve", "service p50", sp.serviceP50),
		spanRow("unattributed", "p50", sp.unattributed),
	}
}

func printLedger(out io.Writer, name string, rows []ledgerRow) {
	fmt.Fprintf(out, "ledger %s:\n%-12s %-38s %14s %10s %10s  %-7s %s\n", name, "layer", "what", "host ns/op", "allocs/op", "B/op", "source", "xt32 ISS cycles")
	num := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
	for _, r := range rows {
		fmt.Fprintf(out, "%-12s %-38s %14.1f %10s %10s  %-7s %s\n", r.Layer, r.What, r.NS, num(r.Allocs), num(r.Bytes), r.Source, r.ISS)
	}
}

// writeOutputs writes the traced requests' span trees and the ledger.
func writeOutputs(o options, tr *tracer, rows []ledgerRow) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", o.w.name, o.seed))
	if err := writeSpans(stem+"-spans.jsonl", tr, o.w.routed); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+"-ledger.json", append(doc, '\n'), 0o644)
}
