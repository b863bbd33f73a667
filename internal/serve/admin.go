package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// TextStats is a stats snapshot that marshals as the JSON document and
// renders itself as the flat text dump.  Stats and gwroute's RouterStats
// both qualify.
type TextStats interface{ Text() string }

// Admin is the operator-facing HTTP listener wispd and wispgw share.  It
// carries no request traffic — that is the binary wire protocol
// (internal/wire) — only:
//
//	GET /stats         — stats snapshot (JSON; ?format=text for the text dump)
//	GET /healthz       — "ok" while serving, 503 "draining" during drain
//	GET /debug/pprof/  — runtime profiles
//
// Profiles are how alloc regressions get diagnosed once the benchcmp gate
// catches them: heap shows what still allocates per record, allocs shows
// the cumulative call graph.  They are mounted on the admin mux because
// the default-mux registration pprof does on import is never served.
type Admin struct {
	stats    func() TextStats
	draining func() bool
	http     *http.Server
	ln       net.Listener
}

// NewAdmin builds an admin listener reporting stats() and draining().
func NewAdmin(stats func() TextStats, draining func() bool) *Admin {
	a := &Admin{stats: stats, draining: draining}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", a.handleStats)
	mux.HandleFunc("GET /healthz", a.handleHealth)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	a.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return a
}

// Listen binds addr (host:port; port 0 picks a free one) and returns the
// bound address.
func (a *Admin) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a.ln = ln
	return ln.Addr(), nil
}

// Serve runs the HTTP loop on the listener from Listen; it blocks until
// Shutdown and returns nil on a clean close.
func (a *Admin) Serve() error {
	if a.ln == nil {
		return fmt.Errorf("serve: admin Serve before Listen")
	}
	if err := a.http.Serve(a.ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown closes the listener once in-flight admin requests return.
func (a *Admin) Shutdown(ctx context.Context) error { return a.http.Shutdown(ctx) }

func (a *Admin) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := a.stats()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, stats.Text())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(stats)
}

func (a *Admin) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if a.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
