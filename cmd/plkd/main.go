// Command plkd serves the phylogenetic likelihood kernel over HTTP: submit
// an alignment once, get a dataset handle backed by the daemon's
// ref-counted, byte-budgeted LRU cache, then evaluate trees and run
// analyses against it. Identical concurrent evaluates coalesce onto one
// kernel run; per-tenant admission control (X-Tenant header) bounds each
// tenant's in-flight work; analysis progress streams over SSE with bounded,
// drop-oldest buffers.
//
// SIGTERM (or one Ctrl-C) drains: new work is rejected with 503 while
// in-flight analyses finish, bounded by -drain-timeout, after which they
// are cancelled at their next synchronization-region boundary. A second
// signal exits immediately with a non-zero status.
//
// Examples:
//
//	plkd -addr 127.0.0.1:8149 -threads 8 -cache-mb 2048
//	plkd -addr 127.0.0.1:0 -addr-file /tmp/plkd.addr   # pick a free port, publish it
//
//	curl -s --data-binary @data.phy 'localhost:8149/v1/datasets?data_type=dna'
//	curl -s localhost:8149/v1/evaluate -H 'Content-Type: application/json' \
//	     -d '{"dataset":"ds_...","seed":42}'
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"phylo"
	"phylo/internal/server"
	"phylo/internal/sigctx"
)

// Connection hygiene for a long-lived daemon: a client must finish its
// request headers, and a kept-alive connection must be reused, within these
// bounds, or the server closes it. Neither limits a response in flight, so
// SSE progress streams are unaffected.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// options is plkd's parsed command line.
type options struct {
	addr, addrFile string
	drainTO        time.Duration
	cfg            server.Config
}

// parseFlags reads plkd's command line into the server config it runs.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("plkd", flag.ExitOnError)
	var (
		o          options
		threads    = fs.Int("threads", 1, "worker count every dataset is built for")
		schedFlag  = fs.String("schedule", "weighted", "pattern-to-worker assignment: cyclic | weighted")
		stealFlag  = fs.Bool("steal", false, "intra-region work stealing on every dataset")
		cats       = fs.Int("cats", 4, "discrete-Gamma category count")
		cacheMB    = fs.Int64("cache-mb", 512, "dataset cache budget in MiB (<0 = unbounded)")
		tenantInfl = fs.Int("tenant-inflight", 2, "per-tenant in-flight work-item quota")
		tenantQ    = fs.Int("tenant-queue", 16, "per-tenant admission queue capacity (0 = fail fast)")
		pprofFlag  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the daemon mux")
	)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8149", "listen address (port 0 picks a free port)")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file once listening")
	fs.DurationVar(&o.drainTO, "drain-timeout", 30*time.Second, "how long a drain waits before cancelling in-flight analyses")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage, -h exits 0
	strat, err := phylo.ParseScheduleStrategy(*schedFlag)
	if err != nil {
		return o, err
	}
	o.cfg = server.Config{
		Threads:         max(1, *threads), // what server.New resolves it to; the start-up line prints cfg.Threads
		Cyclic:          strat == phylo.ScheduleCyclic,
		Steal:           *stealFlag,
		GammaCategories: *cats,
		CacheBytes:      *cacheMB << 20,
		TenantInflight:  *tenantInfl,
		TenantQueue:     cmp.Or(*tenantQ, -1), // Config reads 0 as its default; no queue is negative there
		EnablePprof:     *pprofFlag,
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plkd:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	srv := server.New(o.cfg)
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	ctx, stop := sigctx.Notify(context.Background(), "plkd")
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("plkd: listening on %s (threads=%d schedule=%v cache=%dMiB quota=%d/tenant)\n",
		bound, o.cfg.Threads, o.cfg.Schedule(), o.cfg.CacheBytes>>20, o.cfg.TenantInflight)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Drain: stop accepting connections once in-flight requests finish,
	// while the serving state drains analyses under its own deadline.
	fmt.Println("plkd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTO)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "plkd: shutdown:", err)
	}
	if drainErr != nil {
		fmt.Println("plkd: drain deadline passed; in-flight analyses were cancelled")
	} else {
		fmt.Println("plkd: drained cleanly")
	}
	return nil
}
