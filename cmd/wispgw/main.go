// Command wispgw is the cluster routing tier: it fronts N wispd backends
// (their wire addresses) behind one serving address, giving resumption
// traffic consistent-hash session affinity, spreading fresh handshakes
// with power-of-two-choices over per-node backlog-cost EWMAs (fed by the
// load figure piggybacked on every wire response), ejecting failing
// backends and retrying around them.
//
// It speaks the same wire protocol on -addr a single wispd does, so
// clients cannot tell a routing tier from one node; -admin-addr opens the
// same operator HTTP listener (/stats, /healthz, /debug/pprof/).
//
// Usage:
//
//	wispgw -backends host:p1,host:p2,... [-addr 127.0.0.1:9411]
//	       [-admin-addr ""] [-replicas 64] [-max-inflight 128]
//	       [-eject-after 2] [-eject-for 2s] [-node-retries -1] [-seed 1]
//	       [-coroute-rsa=true] [-coroute-factor 2.0]
//	       [-metrics] [-addrfile PATH] [-drain 30s]
//
// SIGINT/SIGTERM drains: new requests are refused with reason "draining"
// while in-flight ones finish on their backends, then the process exits.
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

	"wisp/internal/gwroute"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

func main() {
	backends := flag.String("backends", "", "comma-separated wispd wire addresses (required)")
	addr := flag.String("addr", "127.0.0.1:9411", "wire protocol listen address (port 0 picks a free port)")
	adminAddr := flag.String("admin-addr", "", "operator HTTP listen address for /stats, /healthz and /debug/pprof/ (empty = none; port 0 picks a free port)")
	replicas := flag.Int("replicas", 64, "virtual nodes per backend on the consistent-hash ring")
	maxInflight := flag.Int64("max-inflight", 128, "max concurrently-routed requests per backend")
	ejectAfter := flag.Int("eject-after", 2, "consecutive transport failures before a backend is ejected")
	ejectFor := flag.Duration("eject-for", 2*time.Second, "quarantine after ejection (then half-open probing)")
	nodeRetries := flag.Int("node-retries", -1, "max additional backends tried after a transport failure (-1 = all others)")
	seed := flag.Int64("seed", 1, "determinism seed for power-of-two-choices sampling")
	coRouteRSA := flag.Bool("coroute-rsa", true, "concentrate same-key non-resume rsa-decrypt traffic on one ring-chosen backend (bounded by -coroute-factor)")
	coRouteFactor := flag.Float64("coroute-factor", 2.0, "co-routing load ceiling: spill to p2c when the preferred backend costs more than factor x the cheapest alternative")
	metrics := flag.Bool("metrics", false, "print the wispgw_* text metrics dump on shutdown")
	addrFile := flag.String("addrfile", "", "write the bound wire address to this file (for scripts)")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
	flag.Parse()

	var addrs []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			addrs = append(addrs, b)
		}
	}
	if len(addrs) == 0 {
		fatal(fmt.Errorf("-backends is required (comma-separated wispd wire addresses)"))
	}
	retries := *nodeRetries
	if retries < 0 {
		retries = len(addrs) - 1
	}

	router, err := gwroute.NewRouter(gwroute.Config{
		Backends:      addrs,
		Replicas:      *replicas,
		MaxInflight:   *maxInflight,
		FailThreshold: *ejectAfter,
		EjectFor:      *ejectFor,
		NodeRetries:   retries,
		Seed:          *seed,
		CoRouteRSA:    *coRouteRSA,
		CoRouteFactor: *coRouteFactor,
		Dial:          func(a string) (serve.Transport, error) { return wire.Dial(a) },
	})
	if err != nil {
		fatal(err)
	}

	srv := wire.NewServer(router, wire.ServerConfig{})
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	var admin *serve.Admin
	if *adminAddr != "" {
		admin = serve.NewAdmin(func() serve.TextStats { return router.Stats() }, router.Draining)
		adminBound, err := admin.Listen(*adminAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wispgw: admin on %s\n", adminBound)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound.String()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wispgw: routing over %d backends (%s)\n", len(addrs), strings.Join(addrs, ", "))
	fmt.Printf("wispgw: wire protocol on %s\n", bound)

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
		fmt.Printf("wispgw: %v — draining...\n", s)
		// New requests shed with reason "draining"; closing the listener
		// waits for in-flight ones to come back from their backends.
		router.Drain()
		err := srv.Close()
		if admin != nil {
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if aerr := admin.Shutdown(ctx); aerr != nil && err == nil {
				err = aerr
			}
			cancel()
		}
		stats := router.Stats()
		if cerr := router.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		fmt.Printf("wispgw: drained cleanly (%d routed ok, %d shed, %d errors)\n",
			stats.OK, stats.Shed, stats.Errors)
		if *metrics {
			fmt.Print(stats.Text())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wispgw:", err)
	os.Exit(1)
}
