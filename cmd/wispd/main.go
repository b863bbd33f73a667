// Command wispd is the security-offload daemon: it serves SSL-transaction
// and raw-primitive requests over the binary wire protocol
// (internal/wire), dispatching them across a shard-per-worker pool of
// simulated platform instances with bounded queues, record-layer
// batching, load-shedding and deadline-aware rejection.  SIGINT/SIGTERM
// triggers a graceful drain: queued requests finish, new ones are shed,
// then the process exits.
//
// Usage:
//
//	wispd [-addr 127.0.0.1:9311] [-admin-addr ""] [-shards N] [-queue 64]
//	      [-batch 16] [-rsabits 512] [-record 1024]
//	      [-seed 1] [-session-cache 4096] [-session-ttl 10m] [-pace-hz 0]
//	      [-client-rate 0] [-client-burst 0] [-fair-limit 0] [-qos-quantum 0]
//	      [-govern] [-govern-tick 500ms]
//	      [-read-timeout 0] [-measured] [-metrics] [-addrfile PATH]
//
// -addr is the wire listener.  -admin-addr opens an operator HTTP listener
// serving /stats (JSON, or ?format=text), /healthz and /debug/pprof/; it
// carries no request traffic.  -pace-hz enables
// model-paced serving: each shard stretches SSL-shaped service times to
// the analytic cycle estimate at the given clock (188e6 = the paper's
// 188 MHz platform), which makes multi-node scaling experiments honest
// on hosts with fewer cores than daemons.
// -client-rate enables per-client QoS isolation: each ClientID's
// estimated-cost spend (µs of predicted service time per second) is
// metered against a token bucket, and under saturation clients are
// fair-queued with deficit round-robin ahead of shard dispatch.
// -read-timeout bounds how long a connection may take to deliver one
// frame once its first byte arrives (the slow-loris defense).
//
// With -measured the daemon characterizes the platform kernels on the ISS
// at startup (Platform.SSLCosts) and prices transactions with those
// numbers; otherwise it uses the baked-in measured defaults.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wisp"
	"wisp/internal/governor"
	"wisp/internal/replica"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9311", "wire protocol listen address (port 0 picks a free port)")
	adminAddr := flag.String("admin-addr", "", "operator HTTP listen address for /stats, /healthz and /debug/pprof/ (empty = none; port 0 picks a free port)")
	shards := flag.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "per-shard queue depth")
	batch := flag.Int("batch", 16, "max requests drained per shard cycle")
	batchWidth := flag.Int("batch-width", 0, "RSA ops folded into one batched engine call per drain (0 = default 4; 1 = scalar)")
	batchGather := flag.Int64("batch-gather-us", 0, "micro-batching window in µs: how long a shard waits to top an under-width RSA batch up before serving it (0 = no wait)")
	rsaBits := flag.Int("rsabits", 512, "gateway handshake key size")
	record := flag.Int("record", 1024, "default record size for SSL transactions")
	seed := flag.Int64("seed", 1, "determinism seed for shard key material")
	sessionCap := flag.Int("session-cache", 4096, "SSL session cache capacity (abbreviated handshakes); negative disables resumption")
	sessionTTL := flag.Duration("session-ttl", 10*time.Minute, "SSL session cache entry lifetime")
	paceHz := flag.Float64("pace-hz", 0, "model-paced serving clock in Hz (188e6 = one 188 MHz platform per shard; 0 = serve at host speed)")
	clientRate := flag.Int64("client-rate", 0, "per-client QoS rate in estimated-cost µs per second (0 = QoS off)")
	clientBurst := flag.Int64("client-burst", 0, "per-client QoS burst in estimated-cost µs (0 = 2x rate)")
	fairLimit := flag.Int64("fair-limit", 0, "outstanding dispatched cost (µs) above which clients are DRR fair-queued (0 = shards x 250ms)")
	qosQuantum := flag.Int64("qos-quantum", 0, "DRR quantum in estimated-cost µs (0 = 10ms)")
	maxCost := flag.Int64("max-cost", 0, "per-request estimated-cost ceiling in µs; dearer requests are throttled (0 = no cap)")
	peersFlag := flag.String("peers", "", "comma-separated wire addresses of ring peers for session-secret replication (@FILE reads the address from FILE at dial time; empty = replication off)")
	replicaR := flag.Int("replica-r", 2, "session replication factor: copies of each session secret pushed to ring peers")
	readTimeout := flag.Duration("read-timeout", 0, "max time one frame may take to arrive once its first byte has (slow-loris defense; 0 = unbounded)")
	govern := flag.Bool("govern", false, "run the adaptive performance governor (batch width/gather from live telemetry)")
	governTick := flag.Duration("govern-tick", 500*time.Millisecond, "governor control period")
	measured := flag.Bool("measured", false, "derive the analytic cost model on the ISS at startup")
	metrics := flag.Bool("metrics", false, "print the text metrics dump on shutdown")
	addrFile := flag.String("addrfile", "", "write the bound wire address to this file (for scripts)")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
	flag.Parse()

	cfg := serve.Config{
		Shards:        *shards,
		QueueDepth:    *queue,
		BatchMax:      *batch,
		BatchWidth:    *batchWidth,
		BatchGatherUS: *batchGather,
		RSABits:       *rsaBits,
		RecordSize:    *record,
		Seed:          *seed,
		SessionCap:    *sessionCap,
		SessionTTL:    *sessionTTL,
		PaceHz:        *paceHz,

		ClientRateUS:  *clientRate,
		ClientBurstUS: *clientBurst,
		FairLimitUS:   *fairLimit,
		DRRQuantumUS:  *qosQuantum,
		MaxCostUS:     *maxCost,
	}
	if *measured {
		fmt.Println("wispd: characterizing platform kernels on the ISS...")
		p, err := wisp.New(wisp.Options{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		base, opt, err := p.SSLCosts()
		if err != nil {
			fatal(err)
		}
		cfg.BaseCosts, cfg.OptCosts = &base, &opt
	}

	gw, err := serve.NewGateway(cfg)
	if err != nil {
		fatal(err)
	}

	// Session-secret replication: push every full-handshake secret to R
	// ring peers in the background, pull unknown offered sessions back on
	// demand, so abbreviated handshakes survive the loss of the node that
	// established them.  Peer addresses resolve at dial time (@FILE reads
	// the address another node's -addrfile wrote), so a cluster can boot
	// all nodes concurrently without an address bootstrap order.
	var rep *replica.Replicator
	if *peersFlag != "" {
		var peers []string
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if len(peers) > 0 {
			rep = replica.New(replica.Config{Peers: peers, R: *replicaR, Dial: dialPeer})
			view := func() *serve.ReplicationView {
				s := rep.Stats()
				return &serve.ReplicationView{
					Peers:      len(peers),
					Replicated: s.Replicated,
					Dropped:    s.Dropped,
					Fetched:    s.Fetched,
					FetchMiss:  s.FetchMiss,
				}
			}
			if !gw.SetSessionReplication(rep.Offer, rep.Fetch, view) {
				fatal(fmt.Errorf("-peers needs session resumption; do not disable -session-cache"))
			}
			fmt.Printf("wispd: session replication to %d peers (R=%d)\n", len(peers), *replicaR)
		}
	}

	// Adaptive governor: a control loop over windowed stats deltas that
	// retunes the batch width/gather window as the live workload shifts.
	var gov *governor.Governor
	if *govern {
		gov = governor.New(governor.Config{
			Tick:     *governTick,
			Snapshot: func() serve.Stats { return gw.Stats() },
			Tuner:    gw,
			Logf: func(format string, args ...any) {
				fmt.Printf("wispd: governor: "+format+"\n", args...)
			},
		})
		gw.SetGovernorView(gov.View)
		go gov.Run()
		fmt.Printf("wispd: governor on — tick %s\n", *governTick)
	}

	srv := wire.NewServer(gw, wire.ServerConfig{ReadTimeout: *readTimeout})
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	var admin *serve.Admin
	if *adminAddr != "" {
		admin = serve.NewAdmin(func() serve.TextStats { return gw.Stats() }, gw.Draining)
		adminBound, err := admin.Listen(*adminAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wispd: admin on %s\n", adminBound)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound.String()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wispd: listening on %s (%d shards, queue %d, batch %d, RSA-%d)\n",
		bound, gw.Config().Shards, gw.Config().QueueDepth, gw.Config().BatchMax, gw.Config().RSABits)
	if qc := gw.Config(); qc.ClientRateUS > 0 {
		fmt.Printf("wispd: QoS on — %dµs/s per client (burst %dµs), fair-queue above %dµs outstanding (quantum %dµs)\n",
			qc.ClientRateUS, qc.ClientBurstUS, qc.FairLimitUS, qc.DRRQuantumUS)
	}
	if *paceHz > 0 {
		fmt.Printf("wispd: model-paced at %.0f Hz — each shard serves like one platform instance\n", *paceHz)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 2)
	go func() { serveErr <- srv.Serve() }()
	if admin != nil {
		go func() { serveErr <- admin.Serve() }()
	}

	select {
	case err := <-serveErr:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Printf("wispd: %v — draining...\n", s)
		if gov != nil {
			gov.Stop() // freeze the knobs before the drain starts
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := gw.Drain(ctx) // in-flight wire requests answer before the sockets drop
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if admin != nil {
			if aerr := admin.Shutdown(ctx); aerr != nil && err == nil {
				err = aerr
			}
		}
		cancel()
		if rep != nil {
			rep.Close() // flush queued session pushes before exiting
		}
		if err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		stats := gw.Stats()
		fmt.Printf("wispd: drained cleanly (%d served, %d shed, %d expired)\n",
			stats.OK, stats.Shed, stats.Expired)
		if r := stats.Replication; r != nil {
			fmt.Printf("wispd: replication — %d pushed, %d dropped, %d fetched, %d fetch misses\n",
				r.Replicated, r.Dropped, r.Fetched, r.FetchMiss)
		}
		if *metrics {
			fmt.Print(stats.Text())
		}
	}
}

// dialPeer opens a replication connection, resolving @FILE peer entries
// to the address in FILE at dial time — re-read on every redial, so a
// peer that restarts on a new port is found again.
func dialPeer(addr string) (replica.Conn, error) {
	if strings.HasPrefix(addr, "@") {
		b, err := os.ReadFile(addr[1:])
		if err != nil {
			return nil, fmt.Errorf("resolving peer %s: %w", addr, err)
		}
		resolved := strings.TrimSpace(string(b))
		if resolved == "" {
			return nil, fmt.Errorf("peer file %s is empty", addr[1:])
		}
		addr = resolved
	}
	return wire.Dial(addr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wispd:", err)
	os.Exit(1)
}
