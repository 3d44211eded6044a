// Package obsserve is the one shared lifecycle for the -obs-listen
// endpoint: every CLI that serves live observability (repro, crashmc,
// bughunt) mounts the same routes the same way instead of keeping its
// own http.Server copy.
//
// Routes:
//
//	/, /metrics       Prometheus text (?format=json for the full snapshot)
//	/obs/v1/snapshot  versioned NodeSnapshot document (pmtop's input)
//	/flight           flight.Handler: span browse and search
//	/flight/v1/search the same handler (the fleet fan-out's input)
//	/debug/pprof/*    opt-in Go profiling (Config.PProf)
//
// Every other path answers 404.
//
// Start returns immediately with the server listening; Close shuts it
// down gracefully with a bounded drain so in-flight scrapes finish.
package obsserve

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"pmtest/internal/flight"
	"pmtest/internal/obs"
)

// Config assembles one observability endpoint.
type Config struct {
	// Addr is the listen address (":8081", "127.0.0.1:0").
	Addr string
	// Source is the node identity stamped into served snapshots;
	// defaults to the bound listen address.
	Source string
	// Role labels the process kind ("pmtestd", "workload") in served
	// snapshots; fleet views group nodes by it. Optional.
	Role string
	// Metrics backs / and /obs/v1/snapshot. May be nil (zero snapshot).
	Metrics *obs.Metrics
	// StatsFn, when set, overrides Metrics.Snapshot for the snapshot
	// document (see obs.SnapshotSource.StatsFn).
	StatsFn func() obs.Snapshot
	// Flight, when non-nil, backs /flight, /flight/v1/search and the
	// snapshot's span summary section.
	Flight *flight.Recorder
	// PProf additionally mounts net/http/pprof under /debug/pprof/ —
	// opt-in because profiling endpoints on a production port are a
	// choice, not a default.
	PProf bool
	// Logger receives lifecycle records (serving, shutdown, errors);
	// nil logs nothing.
	Logger *slog.Logger
	// ShutdownTimeout bounds Close's graceful drain (default 2s).
	ShutdownTimeout time.Duration
}

// Server is a running observability endpoint.
type Server struct {
	srv     *http.Server
	addr    string
	logger  *slog.Logger
	timeout time.Duration
}

// Start binds the listener, mounts the routes and serves in the
// background. It returns once the address is bound, so callers can
// print or scrape it immediately.
func Start(cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obsserve: listen %s: %w", cfg.Addr, err)
	}
	addr := ln.Addr().String()
	source := cfg.Source
	if source == "" {
		source = addr
	}
	src := &obs.SnapshotSource{Source: source, Role: cfg.Role, Metrics: cfg.Metrics, StatsFn: cfg.StatsFn}
	if cfg.Flight != nil {
		rec := cfg.Flight
		src.FlightFn = func() *obs.FlightSummary { return flight.Summarize(rec) }
	}

	mux := http.NewServeMux()
	// The metrics handler answers / and /metrics only — a bare catch-all
	// would 200 every unknown path (and mask the pprof opt-in gate).
	metricsHandler := obs.Handler(cfg.Metrics)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" && r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		metricsHandler.ServeHTTP(w, r)
	})
	mux.Handle("/obs/v1/snapshot", obs.SnapshotHandler(src))
	if cfg.Flight != nil {
		spans := flight.Handler(cfg.Flight)
		mux.Handle("/flight", spans)
		mux.Handle(flight.SearchPath, spans)
	}
	if cfg.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	s := &Server{
		srv:     &http.Server{Handler: mux},
		addr:    addr,
		logger:  cfg.Logger,
		timeout: cfg.ShutdownTimeout,
	}
	if s.timeout <= 0 {
		s.timeout = 2 * time.Second
	}
	if s.logger != nil {
		s.logger.Info("observability endpoint serving",
			"addr", addr, "pprof", cfg.PProf, "flight", cfg.Flight != nil)
	}
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			if s.logger != nil {
				s.logger.Error("observability endpoint failed", "addr", addr, "err", err)
			}
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.addr }

// Close shuts the endpoint down gracefully, bounded by the configured
// drain timeout; errors are logged, never fatal — the run's results
// matter more than a clean socket teardown.
func (s *Server) Close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil && s.logger != nil {
		s.logger.Error("observability endpoint shutdown", "addr", s.addr, "err", err)
	}
	if s.logger != nil {
		s.logger.Info("observability endpoint stopped", "addr", s.addr)
	}
}
