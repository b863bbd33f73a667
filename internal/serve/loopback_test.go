package serve_test

// Loopback acceptance runs: the load generator (internal/loadgen) drives a
// real gateway through its wire listener in one process, and each test
// holds the client-side report against the gateway's own counters.

import (
	"testing"
	"time"

	"wisp/internal/loadgen"
	"wisp/internal/serve"
)

// TestLoopbackFigure8Mix is the acceptance loopback: daemon and load
// generator in one process, the paper's 1k/4k/16k/32k mix at 4 concurrent
// clients, zero corrupted payloads, populated latency histograms, shed
// counters present, clean drain.
func TestLoopbackFigure8Mix(t *testing.T) {
	gw, addr := startWireGateway(t, serve.Config{Shards: 2, Seed: 3}, 0)
	rep, err := loadgen.Run(loadgen.Config{
		Addr:      addr,
		Clients:   4,
		PerClient: 4,
		Mix:       []int{1 << 10, 4 << 10, 16 << 10, 32 << 10},
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d corrupted payloads", rep.Mismatches)
	}
	if rep.OK != 16 || rep.Transactions != 16 {
		t.Fatalf("ok=%d transactions=%d, want 16/16: %+v", rep.OK, rep.Transactions, rep)
	}
	if rep.Latency.Count != 16 || rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Errorf("bad latency summary %+v", rep.Latency)
	}
	if len(rep.PerSize) != 4 {
		t.Errorf("per-size rows = %d, want 4", len(rep.PerSize))
	}
	if rep.ModelSpeedup <= 1 {
		t.Errorf("model speedup = %v, want > 1", rep.ModelSpeedup)
	}

	stats := gw.Stats()
	ssl := stats.PerOp[string(serve.OpSSL)]
	if ssl.OK != 16 || ssl.Latency.Count != 16 {
		t.Errorf("server ssl stats %+v, want 16 observations", ssl)
	}
	if ssl.Latency.P50 <= 0 || ssl.Latency.P99 < ssl.Latency.P50 {
		t.Errorf("server latency histogram not populated: %+v", ssl.Latency)
	}
	if stats.BatchSize.Count == 0 {
		t.Error("batch-size histogram empty")
	}
	if _, ok := stats.ShedByReason["queue-full"]; !ok {
		t.Error("shed counters missing from stats")
	}
	if stats.Shed != 0 {
		t.Errorf("unexpected sheds: %d", stats.Shed)
	}
}

// TestLoopbackShedding overloads a deliberately tiny gateway through the
// wire listener and checks that shed requests are reported consistently on
// both sides, with zero corruption among the served ones.
func TestLoopbackShedding(t *testing.T) {
	gw, addr := startWireGateway(t, serve.Config{Shards: 1, QueueDepth: 1, BatchMax: 1, Seed: 5}, 0)
	rep, err := loadgen.Run(loadgen.Config{
		Addr:      addr,
		Clients:   8,
		PerClient: 4,
		Mix:       []int{8 << 10}, // ~17 ms of 3DES per transaction: the queue must back up
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 || rep.Errors != 0 {
		t.Fatalf("mismatches=%d errors=%d", rep.Mismatches, rep.Errors)
	}
	if rep.Shed == 0 {
		t.Fatal("overload produced no sheds — admission control not engaging")
	}
	stats := gw.Stats()
	if stats.Shed != uint64(rep.Shed) {
		t.Errorf("server reports %d sheds, clients saw %d", stats.Shed, rep.Shed)
	}
	if stats.ShedByReason["queue-full"] == 0 {
		t.Error("queue-full shed counter not populated")
	}
	if got := stats.PerOp[string(serve.OpSSL)]; got.Shed == 0 {
		t.Error("per-op shed counter not populated")
	}
}

// TestLoopbackRetryAfterShed drives a deliberately tiny gateway with
// client retries enabled and checks that retried submissions both show
// up in the server's retry telemetry and convert sheds into successes.
func TestLoopbackRetryAfterShed(t *testing.T) {
	gw, addr := startWireGateway(t, serve.Config{Shards: 1, QueueDepth: 1, BatchMax: 1, Seed: 51}, 0)
	rep, err := loadgen.Run(loadgen.Config{
		Addr:      addr,
		Clients:   8,
		PerClient: 3,
		Mix:       []int{8 << 10},
		Retries:   6,
		BackoffUS: 3000,
		Seed:      19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 || rep.Errors != 0 {
		t.Fatalf("mismatches=%d errors=%d", rep.Mismatches, rep.Errors)
	}
	if rep.Retries == 0 {
		t.Skip("overload never shed — host too fast for this configuration")
	}
	stats := gw.Stats()
	if stats.Retries == 0 {
		t.Error("server retry telemetry empty despite client retries")
	}
	if rep.OK == 0 {
		t.Error("no request ever succeeded despite retries")
	}
}

// TestLoadResumeRatio runs the closed-loop generator with a resume ratio
// against a live wire listener and checks the report splits the resumed
// class out with zero digest mismatches.
func TestLoadResumeRatio(t *testing.T) {
	_, addr := startWireGateway(t, serve.Config{Shards: 2, RSABits: 512, Seed: 3}, 0)
	rep, err := loadgen.Run(loadgen.Config{
		Addr:        addr,
		Clients:     2,
		PerClient:   12,
		Mix:         []int{1 << 10},
		Ops:         []serve.Op{serve.OpSSL},
		ResumeRatio: 0.6,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches > 0 {
		t.Errorf("%d digest mismatches", rep.Mismatches)
	}
	if rep.OK != 24 {
		t.Errorf("ok = %d, want 24", rep.OK)
	}
	if rep.Resumed == 0 {
		t.Error("resume ratio 0.6 produced no resumed transactions")
	}
	var sawResumedClass bool
	for _, row := range rep.PerOp {
		if row.Op == "ssl+resumed" {
			sawResumedClass = true
			if row.Latency.Count != rep.Resumed {
				t.Errorf("resumed class has %d samples, report says %d resumed", row.Latency.Count, rep.Resumed)
			}
		}
	}
	if !sawResumedClass {
		t.Error("report has no ssl+resumed latency class")
	}
	rec := loadgen.NewBenchRecord(rep, nil)
	if _, ok := rec.Ops["ssl+resumed"]; !ok {
		t.Error("bench record missing the resumed op class")
	}
}

// TestLoopbackAttackIsolation runs the mixed adversarial workload end to
// end over a real socket: legit closed-loop clients with resumption and
// deadlines, a flood attacker hammering full-handshake SSL from concurrent
// streams under one ClientID, a thrash attacker churning the session
// cache, and a slowloris attacker dribbling bodies against the read
// timeout.  The QoS layer must throttle the flood while legit clients
// keep their digests clean, their sheds bounded and their session hit
// rate above the floor.
func TestLoopbackAttackIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed adversarial run is seconds long")
	}
	// The rate comes from the test's own config, not from host or cipher
	// speed: twice a legit client's fair share of the shards,
	// 2 × shards × 1 s/s ÷ legit clients, about 667 ms/s of estimated
	// work per second here.  A serial legit client holds one round trip
	// at a time, so it cannot spend more than its share even when service
	// time dominates its round trips, as under the race detector.  With
	// the per-client cost counters logged, the most a legit client spent
	// was 27–28 ms/s in plain runs and 43–66 ms/s under -race, with at
	// most 1 legit shed of 120.  The flood must demand several times the
	// rate on any host: 256 streams of 4 KB full-handshake SSL offered
	// 4.9–5.0 s/s in plain runs (7× the rate) and 9–22 s/s under -race,
	// so most of its arrivals are throttled.  64 streams offered only
	// 1.0 s/s in plain runs, 128 streams 2.0 s/s.  (A thrash attacker's
	// cheap handshakes sit too close to the legit share for a
	// host-independent verdict, so the churn profile rides along for its
	// cache pressure, not for the throttle assertion.)  The read timeout
	// must be generous enough that a legit body read delayed by
	// detector-inflated scheduling never trips it, while the slowloris
	// dribble below stretches well past it.
	const shards, legitClients = 2, 6
	gw, addr := startWireGateway(t, serve.Config{
		Shards: shards, Seed: 9,
		ClientRateUS: 2 * shards * 1_000_000 / legitClients, ClientBurstUS: 100_000,
	}, 500*time.Millisecond)

	rep, err := loadgen.Run(loadgen.Config{
		Addr:        addr,
		Clients:     legitClients,
		PerClient:   20,
		Mix:         []int{1 << 10, 4 << 10},
		Ops:         []serve.Op{serve.OpSSL, serve.OpRecord},
		ResumeRatio: 0.7,
		DeadlineUS:  30_000_000,
		Seed:        9,

		Attack:            []loadgen.AttackProfile{loadgen.AttackFlood, loadgen.AttackThrash, loadgen.AttackSlowloris},
		AttackRatio:       0.25,
		AttackConcurrency: 256,
		AttackRTTUS:       2000, // near-loopback attackers; pacing only bounds the throttle-spin rate
		SlowlorisMS:       1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d digest mismatches under attack", rep.Mismatches)
	}
	if rep.Legit == nil || rep.AttackRep == nil {
		t.Fatal("mixed run missing class reports")
	}
	if rep.AttackRep.Clients != 3 {
		t.Fatalf("attacker count %d, want 3 (flood + thrash + slowloris)", rep.AttackRep.Clients)
	}

	// Legit service must stay near-total: bounded sheds, no expiries.
	lg := rep.Legit
	if lg.Requests == 0 || lg.OK == 0 {
		t.Fatalf("legit class served nothing: %+v", lg)
	}
	if lg.Shed*3 > lg.Requests {
		t.Fatalf("legit sheds unbounded: %d of %d requests", lg.Shed, lg.Requests)
	}
	if lg.Errors != 0 {
		t.Fatalf("legit transport errors: %d", lg.Errors)
	}

	// Legit resumption must survive the thrash churn: throttling bounds
	// how fast the attacker can cycle the session cache.
	if lg.ResumeAsked > 0 && lg.Resumed*2 < lg.ResumeAsked {
		t.Fatalf("legit session hit rate below floor: %d resumed of %d asked", lg.Resumed, lg.ResumeAsked)
	}

	// The attackers must actually have been throttled.
	stats := gw.Stats()
	if stats.QoS == nil {
		t.Fatal("stats missing QoS view")
	}
	if stats.QoS.Throttled == 0 {
		t.Fatal("no requests throttled — attackers ran unmetered")
	}
	if rep.AttackRep.Throttled == 0 {
		t.Fatal("attack class reports zero throttles")
	}
	// Throttle sheds are policy, not capacity: they must never be counted
	// as sheds-while-idle.
	if stats.ShedWhileIdle != 0 {
		t.Fatalf("%d sheds while idle (throttle sheds misclassified?)", stats.ShedWhileIdle)
	}
	// Every legit client should appear in the per-client accounting with
	// clean identities (the fuzz harness checks the invariants directly;
	// here we check the serving path feeds them).
	found := 0
	for _, c := range stats.QoS.Clients {
		if len(c.ID) >= 5 && c.ID[:5] == "legit" {
			found++
		}
	}
	if found != legitClients {
		t.Fatalf("per-client table tracks %d legit identities, want %d: %+v", found, legitClients, stats.QoS.Clients)
	}
}
