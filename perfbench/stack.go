package main

import (
	"context"
	"crypto/md5"
	"errors"
	"fmt"
	"runtime"
	"time"

	"wisp/internal/gwroute"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

// stack is the serving system under test, assembled in-process through
// the constructors cmd/wispd and cmd/wispgw use: gateways behind wire
// listeners and, for routed workloads, a gwroute.Router on its own wire
// listener.  Clients reach it only over loopback TCP.
type stack struct {
	gateways []*serve.Gateway
	servers  []*wire.Server // gateway listeners, then the router's
	router   *gwroute.Router
	conns    []*wire.Transport // client connections to the front listener
	done     chan error        // one Serve result per server
}

// buildStack starts the workload's topology and returns it once the front
// listener has answered one request.  A non-nil tracer wraps every
// handler and backend transport with span recorders.
func buildStack(w *workload, nconns int, tr *tracer) (*stack, error) {
	s := &stack{done: make(chan error, w.backends+1)}
	var addrs []string
	for i := 0; i < w.backends; i++ {
		g, err := serve.NewGateway(serve.Config{Shards: w.shards})
		if err != nil {
			s.close()
			return nil, err
		}
		s.gateways = append(s.gateways, g)
		addr, err := s.listen(g, tr, roleGateway)
		if err != nil {
			s.close()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	front := addrs[0]
	if w.routed {
		dial := func(addr string) (serve.Transport, error) {
			t, err := wire.Dial(addr)
			if err != nil {
				return nil, err
			}
			if tr == nil {
				return t, nil
			}
			return &tracedTransport{Transport: t, tr: tr}, nil
		}
		r, err := gwroute.NewRouter(gwroute.Config{Backends: addrs, Dial: dial})
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = r
		if front, err = s.listen(r, tr, roleRouter); err != nil {
			s.close()
			return nil, err
		}
	}
	for i := 0; i < nconns; i++ {
		t, err := wire.Dial(front)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, t)
	}
	if err := s.ping(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// listen puts a wire listener on loopback in front of h.
func (s *stack) listen(h wire.Handler, tr *tracer, role int) (string, error) {
	if tr != nil {
		h = &tracedHandler{Handler: h, tr: tr, role: role}
	}
	srv := wire.NewServer(h, wire.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.servers = append(s.servers, srv)
	go func() { s.done <- srv.Serve() }()
	return addr.String(), nil
}

// ping sends the stack's first request: an md5 op, checked.
func (s *stack) ping() error {
	payload := []byte("perfbench first request")
	resp, err := s.conns[0].RoundTrip(&serve.Request{Op: serve.OpMD5, Payload: payload})
	if err != nil {
		return err
	}
	want := md5.Sum(payload)
	if resp.Status != serve.StatusOK || string(resp.Digest) != string(want[:]) {
		return fmt.Errorf("first request: status %s, digest %x, want %x", resp.Status, resp.Digest, want)
	}
	return nil
}

// close stops everything buildStack started, front to back, and waits
// for every listener's accept loop to return.
func (s *stack) close() error {
	var errs []error
	for _, c := range s.conns {
		c.Close()
	}
	servers := s.servers
	if s.router != nil && len(servers) > len(s.gateways) {
		front := servers[len(servers)-1]
		servers = servers[:len(servers)-1]
		errs = append(errs, front.Close())
	}
	if s.router != nil {
		errs = append(errs, s.router.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, g := range s.gateways {
		if err := g.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("drain: %w", err))
		}
	}
	for _, srv := range servers {
		errs = append(errs, srv.Close())
	}
	for range s.servers {
		errs = append(errs, <-s.done)
	}
	return errors.Join(errs...)
}

// timedBuild builds the stack from a collected heap and returns it with
// its set-up time: from the start of the build until the stack has
// answered its first request — key generation, the shards' resident
// handshakes, listeners and the router's dials.
func timedBuild(w *workload, nconns int, tr *tracer) (*stack, float64, error) {
	runtime.GC()
	start := time.Now()
	s, err := buildStack(w, nconns, tr)
	return s, time.Since(start).Seconds(), err
}

// setupSamples builds and closes n throwaway stacks and returns their
// set-up times.
func setupSamples(w *workload, nconns, n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		s, t, err := timedBuild(w, nconns, nil)
		if err != nil {
			return nil, err
		}
		if err := s.close(); err != nil {
			return nil, err
		}
		times = append(times, t)
	}
	return times, nil
}
