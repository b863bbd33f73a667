// Package governor closes the loop between the serving telemetry and the
// gateway's batch knobs.  On a fixed tick it diffs consecutive stats
// snapshots into a window (serve.DiffStats) and makes guarded decisions
// on the batch width and gather window: widen the RSA batch engine when
// sustained queue depth shows lanes going unused, shrink it back when the
// load drops, and retarget the gather window from the observed decrypt
// arrival rate — all behind hysteresis bands so oscillating load near a
// band edge never flaps the knobs.  Every decision is counted and
// exported through the gateway's stats document (serve.GovernorView), so
// an adapted run is auditable after the fact.
//
// The control loop is deliberately side-effect free when the telemetry is
// quiet: no RSA traffic in a window means no width or gather moves, and a
// gateway started with -govern=false never constructs a Governor at all.
package governor

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wisp/internal/serve"
)

// Tuner is the knob surface the governor drives.  *serve.Gateway
// implements it; tests substitute a recording fake.
type Tuner interface {
	BatchWidth() int
	SetBatchWidth(int)
	BatchGatherUS() int64
	SetBatchGatherUS(int64)
}

// Config parameterises the control loop.  Zero fields take the defaults
// noted inline.
type Config struct {
	Tick time.Duration // control period for Run (500ms)

	// Width control: widen when mean queue depth holds at or above
	// WidenDepth for HoldTicks consecutive windows with RSA traffic
	// present, shrink when it holds at or below ShrinkDepth.  The gap
	// between the two bands is the hysteresis dead zone — depth
	// oscillating across one band edge resets the streak and never moves
	// the knob.  Width moves geometrically (double/halve) within
	// [MinWidth, MaxWidth].
	MinWidth    int     // 1
	MaxWidth    int     // 8
	WidenDepth  float64 // 3
	ShrinkDepth float64 // 1
	HoldTicks   int     // 2

	// Gather control: when decrypts arrive too sparsely to form groups on
	// their own, the gather window is retargeted to the time width-1
	// more arrivals need at the observed rate, capped at MaxGatherUS.
	MaxGatherUS int64 // 3000

	// Snapshot supplies the telemetry; Tuner receives the decisions.
	Snapshot func() serve.Stats
	Tuner    Tuner

	// Logf, when set, receives one line per decision.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Tick <= 0 {
		c.Tick = 500 * time.Millisecond
	}
	if c.MinWidth <= 0 {
		c.MinWidth = 1
	}
	if c.MaxWidth <= 0 {
		c.MaxWidth = 8
	}
	if c.MaxWidth < c.MinWidth {
		c.MaxWidth = c.MinWidth
	}
	if c.WidenDepth <= 0 {
		c.WidenDepth = 3
	}
	if c.ShrinkDepth <= 0 {
		c.ShrinkDepth = 1
	}
	if c.HoldTicks <= 0 {
		c.HoldTicks = 2
	}
	if c.MaxGatherUS <= 0 {
		c.MaxGatherUS = 3000
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Governor is the control loop.  Tick is safe to call directly for
// deterministic tests; Run drives it on a wall-clock ticker.
type Governor struct {
	cfg Config

	// Loop-goroutine-owned state.
	prev         *serve.Stats
	widenStreak  int
	shrinkStreak int
	gatherStreak int

	// Cross-goroutine view counters (read by View from the stats path).
	ticks         atomic.Uint64
	widthWidens   atomic.Uint64
	widthShrinks  atomic.Uint64
	gatherChanges atomic.Uint64

	stopOnce sync.Once
	running  atomic.Bool
	stop     chan struct{}
	done     chan struct{}
}

// New builds a governor.  Snapshot and Tuner are required.
func New(cfg Config) *Governor {
	cfg.fillDefaults()
	if cfg.Snapshot == nil || cfg.Tuner == nil {
		panic("governor: Config.Snapshot and Config.Tuner are required")
	}
	return &Governor{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Run drives the control loop until Stop.  Call from its own goroutine.
func (g *Governor) Run() {
	g.running.Store(true)
	defer close(g.done)
	t := time.NewTicker(g.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.Tick()
		}
	}
}

// Stop halts Run and waits for any in-flight tick to finish.  Safe to
// call more than once, and a no-op when Run was never started.
func (g *Governor) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	if g.running.Load() {
		<-g.done
	}
}

// View exports the decision counters for the /stats document.
func (g *Governor) View() *serve.GovernorView {
	return &serve.GovernorView{
		Ticks:         g.ticks.Load(),
		WidthWidens:   g.widthWidens.Load(),
		WidthShrinks:  g.widthShrinks.Load(),
		GatherChanges: g.gatherChanges.Load(),
	}
}

// Tick runs one control step: snapshot, window, decide.  Not safe for
// concurrent calls — Run is the only production caller.
func (g *Governor) Tick() {
	cur := g.cfg.Snapshot()
	w := serve.DiffStats(g.prev, &cur)
	g.prev = &cur
	g.ticks.Add(1)

	// Backlog pressure: the larger of the instantaneous queue-depth gauge
	// and the window's mean same-op drain-group size.  The gauge alone is
	// blind to exactly the load that wants batching — a shard drains its
	// whole queue into one group before serving it, so during a sustained
	// burst the queue reads near empty while every drain finds a group
	// worth of fusable work.
	gauge := meanDepth(cur.QueueDepth)
	pressure := gauge
	if gs := w.MeanGroupSize(); gs > pressure {
		pressure = gs
	}

	g.controlWidth(&w, pressure)
	g.controlGather(&w, gauge)
}

func meanDepth(depths []int64) float64 {
	if len(depths) == 0 {
		return 0
	}
	var sum int64
	for _, d := range depths {
		sum += d
	}
	return float64(sum) / float64(len(depths))
}

// controlWidth widens/shrinks the batch width on sustained demand for
// lanes.  Two independent widen drivers, per the two signals the window
// carries: backlog pressure (queue depth or drain-group size at or above
// the widen band, and at or above the current width — a queue the
// current lanes already cover justifies nothing), and arrival rate (the
// decrypt stream is fast enough that one max-length gather window would
// overfill the current width, even though each drain sees the tasks one
// at a time).  Shrink needs both quiet: pressure at or below the shrink
// band and a rate too low to ever fill two lanes.  Widening requires
// HoldTicks consecutive windows inside the band; shrinking requires
// twice that — losing lanes under load is never urgent, and the
// asymmetry keeps a brief slow patch mid-burst from surrendering a
// width the traffic still wants.  A window in the dead zone between
// the bands resets both streaks.
func (g *Governor) controlWidth(w *serve.StatsWindow, pressure float64) {
	rsaSeen := w.PerOp[string(serve.OpRSADecrypt)].Requests > 0
	width := g.cfg.Tuner.BatchWidth()
	// Decrypt arrivals expected inside one max-length gather window.
	gatherable := w.OpArrivalRate(serve.OpRSADecrypt) * float64(g.cfg.MaxGatherUS) / 1e6
	switch {
	case rsaSeen && ((pressure >= g.cfg.WidenDepth && pressure >= float64(width)) ||
		gatherable >= float64(width+1)):
		g.widenStreak++
		g.shrinkStreak = 0
	case pressure <= g.cfg.ShrinkDepth && gatherable < 2:
		g.shrinkStreak++
		g.widenStreak = 0
	default:
		g.widenStreak, g.shrinkStreak = 0, 0
	}

	if g.widenStreak >= g.cfg.HoldTicks && width < g.cfg.MaxWidth {
		next := width * 2
		if next > g.cfg.MaxWidth {
			next = g.cfg.MaxWidth
		}
		g.cfg.Tuner.SetBatchWidth(next)
		g.widthWidens.Add(1)
		g.widenStreak = 0
		g.cfg.Logf("batch width %d -> %d (pressure %.1f, %.1f gatherable/window over %d windows)",
			width, next, pressure, gatherable, g.cfg.HoldTicks)
	} else if g.shrinkStreak >= 2*g.cfg.HoldTicks && width > g.cfg.MinWidth {
		next := width / 2
		if next < g.cfg.MinWidth {
			next = g.cfg.MinWidth
		}
		g.cfg.Tuner.SetBatchWidth(next)
		g.widthShrinks.Add(1)
		g.shrinkStreak = 0
		g.cfg.Logf("batch width %d -> %d (pressure %.1f, %.1f gatherable/window over %d windows)",
			width, next, pressure, gatherable, 2*g.cfg.HoldTicks)
	}
}

// controlGather retargets the gather window.  The window exists to buy
// lanes from a fast serial arrival stream: with more than one lane
// configured and the queue not already filling them (mean drain-group
// size below the width), the target is the time width-1 more decrypt
// arrivals need at the observed rate, capped at MaxGatherUS.  Dense
// backlog (queue-depth gauge at or above the widen band) fills groups
// from the queue with no waiting, and a rate too slow to deliver even
// one extra arrival per max-length window would only add latency — both
// drive the target to 0.  On/off flips require HoldTicks consecutive
// windows wanting the new mode, and magnitude retunes apply only on a
// ≥50% relative move — band-edge oscillation and small rate wobble
// never touch the knob.
func (g *Governor) controlGather(w *serve.StatsWindow, gauge float64) {
	width := g.cfg.Tuner.BatchWidth()
	rate := w.OpArrivalRate(serve.OpRSADecrypt)
	cur := g.cfg.Tuner.BatchGatherUS()
	var target int64
	if width > 1 && gauge < g.cfg.WidenDepth &&
		rate*float64(g.cfg.MaxGatherUS)/1e6 >= 1 &&
		w.MeanGroupSize() < float64(width) {
		target = int64(float64(width-1) / rate * 1e6)
		if target > g.cfg.MaxGatherUS {
			target = g.cfg.MaxGatherUS
		}
	}
	if (target > 0) != (cur > 0) {
		if g.gatherStreak++; g.gatherStreak < g.cfg.HoldTicks {
			return
		}
	} else {
		g.gatherStreak = 0
		if target == cur || (cur > 0 && math.Abs(float64(target-cur))/float64(cur) < 0.5) {
			return
		}
	}
	g.gatherStreak = 0
	g.cfg.Tuner.SetBatchGatherUS(target)
	g.gatherChanges.Add(1)
	g.cfg.Logf("gather window %dus -> %dus (rsa rate %.1f/s, width %d)", cur, target, rate, width)
}
