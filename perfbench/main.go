// Command perfbench is the repository's serving benchmark.  It assembles
// the wire-protocol serving stack in-process (gateways, and for the routed
// workload a gwroute.Router), drives it over loopback from a seeded
// generator, checks every answer and prints its metrics; the last line of
// standard output is one JSON object with the result.
//
//	sh perfbench/run.sh --workload handshake-mix --seed 1 --seconds 50 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// variant that reports per-layer metrics and the layer ledger instead.
// See perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	w       *workload
	seed    int64
	seconds float64
	procs   int // GOMAXPROCS and the number of client connections
	out     io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated traffic")
	seconds := fs.Int("seconds", 60, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{w: w, seed: *seed, seconds: float64(*seconds), procs: min(2, runtime.NumCPU()), out: stdout}
	runtime.GOMAXPROCS(o.procs)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d gomaxprocs=%d conns=%d\n",
		w.name, o.seed, *seconds, *trace, o.procs, o.procs)

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(o)
	} else {
		res, err = runPlain(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// warmup is the closed-loop warm-up outside the measured seconds.
const warmup = 2 * time.Second

// closedWindows is how many windows the closed loop is cut into.  The
// reference kernel runs after each, and setupsPerWindow throwaway stacks
// are built, so both sample the host over the whole phase.
const (
	closedWindows   = 10
	setupsPerWindow = 2
)

// failedLatencyUS stands for a failed request's latency in the JSON
// result: longer than any run, so a failure is over every limit.
const failedLatencyUS = 1e9

// inputs is a run's pre-generated traffic.
type inputs struct {
	gen        *generator
	handshakes []item // one full handshake per client (session workloads)
	warm       []item
	open       [][]item // one stream per open-loop phase
	sched      [][]int64
	closed     []item
}

// generate makes every request of the run before any timing starts.
func generate(o options, openPhases int, openSecs, closedSecs float64) *inputs {
	w := o.w
	g := newGenerator(w, o.seed)
	in := &inputs{gen: g}
	if w.sessions {
		in.handshakes = g.handshakes()
	}
	in.warm = g.stream(closedPool(w.rate * warmup.Seconds()))
	n := int(math.Round(w.rate * openSecs))
	for i := 0; i < openPhases; i++ {
		in.open = append(in.open, g.stream(n))
		in.sched = append(in.sched, g.schedule(n, w.rate))
	}
	if closedSecs > 0 {
		in.closed = g.stream(closedPool(w.rate * closedSecs))
	}
	return in
}

// closedPool sizes a closed-loop stream from the requests the open-loop
// rate would send in the same time.  A closed loop runs several times
// faster and cycles through its stream; the pool only bounds the memory
// the inputs hold.
func closedPool(openRequests float64) int {
	return min(32768, max(2048, int(2*openRequests)))
}

// started is a built and warmed stack.
type started struct {
	s      *stack
	c      *client
	setupS float64
	warm   *tally
}

// start builds the stack (timing its set-up) and warms it: every client's
// full handshake, then the warm-up stream in a closed loop, so the
// session cache, the precompute caches and the router's cost estimates
// are filled before timing starts.
func start(o options, in *inputs, tr *tracer) (*started, error) {
	r := &started{warm: newTally()}
	var err error
	if r.s, r.setupS, err = timedBuild(o.w, o.procs, tr); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.c = newClient(in.gen, r.s.conns)
	if len(in.handshakes) > 0 {
		r.warm.add(r.c.closedLoop(in.handshakes, o.w.inflight, 0).t)
	}
	r.warm.add(r.c.closedLoop(in.warm, o.w.inflight, warmup).t)
	return r, nil
}

// runPlain measures the end-to-end metrics: the open loop for half the
// seconds, then the closed loop for the other half in closedWindows
// windows, with the reference kernel and the extra set-ups between them,
// outside the timed totals.  Set-up time, throughput and CPU per op are
// scaled to the reference host speed.
func runPlain(o options) (*result, error) {
	half := o.seconds / 2
	in := generate(o, 1, half, half)
	r, err := start(o, in, nil)
	if err != nil {
		return nil, err
	}
	open := r.c.openLoop(in.open[0], in.sched[0])
	closed := closedResult{t: newTally()}
	var refs []time.Duration
	setups := []float64{r.setupS}
	for i := 0; i < closedWindows; i++ {
		closed.add(r.c.closedLoop(in.closed, o.w.inflight, secs(half)/closedWindows))
		refs = append(refs, refKernel(o.procs))
		ts, err := setupSamples(o.w, o.procs, setupsPerWindow)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, ts...)
	}
	if err := r.s.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	total := newTally()
	total.add(open.t)
	total.add(closed.t)

	ref := meanDuration(refs)
	speed := float64(ref) / float64(refNominal) // above 1: the host ran slower than the reference
	setupS := median(setups)
	p50, p99 := windowedPercentile(open.lat, 50), windowedPercentile(open.lat, 99)
	ok := float64(closed.t.ok)
	throughput := ok / closed.elapsed.Seconds()
	cpuPerOp := ratio(float64(closed.cpu.Microseconds()), ok)
	m := map[string]metric{
		"setup_s":            {setupS / speed, "s"},
		"throughput_ops_ref": {throughput * speed, "1/s"},
		"latency_p50_us":     {finite(p50), "us"},
		"latency_p99_us":     {finite(p99), "us"},
		"ok_ratio":           {ratio(float64(total.ok), float64(total.attempted)), "ratio"},
		"cpu_us_per_op_ref":  {cpuPerOp / speed, "us"},
		"allocs_per_op":      {ratio(float64(closed.allocs), ok), "count"},
		"alloc_bytes_per_op": {ratio(float64(closed.allocByte), ok), "B"},
		"max_rss_mb":         {maxRSSMB(), "MB"},
	}
	fmt.Fprintf(o.out, "open loop: %.0f req/s Poisson, %d sent, %d ok, %d latency samples in %d windows, generator lag p99 %.1f us\n",
		o.w.rate, open.t.attempted, open.t.ok, len(open.lat), latencyWindows(len(open.lat)), percentile(open.lagUS, 99))
	fmt.Fprintf(o.out, "closed loop: %d in flight, %d sent, %d ok in %.3f s\n",
		o.w.inflight, closed.t.attempted, closed.t.ok, closed.elapsed.Seconds())
	fmt.Fprintf(o.out, "set-up: median of %d builds; reference kernel: mean %.1f ms over %d runs, nominal %.0f ms; unscaled:\n",
		len(setups), ms(ref), len(refs), ms(refNominal))
	printMetrics(o.out, map[string]metric{
		"setup_s_raw":    {setupS, "s"},
		"throughput_ops": {throughput, "1/s"},
		"cpu_us_per_op":  {cpuPerOp, "us"},
	})
	printMetrics(o.out, m)
	return finish(o.out, total, r.warm, m), nil
}

// finish prints the failure accounting and builds the result.  Any digest
// or result mismatch, and any op the server failed, makes the run
// incorrect, warm-up included.
func finish(out io.Writer, total, warm *tally, m map[string]metric) *result {
	fmt.Fprintf(out, "fail_ratio %g ratio (%d failed of %d attempted;", ratio(float64(total.failed()), float64(total.attempted)),
		total.failed(), total.attempted)
	for _, k := range []string{failShed, failExpired, failError, failTransport, failMismatch} {
		fmt.Fprintf(out, " %s %d", k, total.fails[k])
	}
	fmt.Fprintf(out, "; warm-up %d failed of %d)\n", warm.failed(), warm.attempted)
	for _, e := range append(warm.firstErrors, total.firstErrors...) {
		fmt.Fprintf(out, "failure: %s\n", e)
	}
	bad := total.fails[failMismatch] + total.fails[failError] + warm.fails[failMismatch] + warm.fails[failError]
	return &result{Correct: bad == 0, Attempted: total.attempted, Failed: total.failed(), Metrics: m}
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-36s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func meanDuration(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func finite(us float64) float64 {
	if math.IsInf(us, 1) {
		return failedLatencyUS
	}
	return us
}
