// Package sigctx implements the two-stage interrupt protocol shared by the
// repository's long-running commands (plkrun, plkd): the first
// SIGINT/SIGTERM cancels a context so the command can drain at the next safe
// boundary (a synchronization-region boundary for analyses, a graceful HTTP
// drain for the daemon), and a second signal hard-exits the process with a
// non-zero status instead of hanging behind a slow drain.
package sigctx

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// exitCodeInterrupted is the conventional 128+SIGINT exit status reported on
// a second (hard-exit) signal.
const exitCodeInterrupted = 130

// Notify returns a child of parent that is cancelled on the first
// SIGINT/SIGTERM. A second signal prints a note to stderr and exits the
// process immediately with status 130 — the escape hatch when a drain is
// slower than the operator's patience. name prefixes the stderr notes.
// The returned stop function releases the signal handler (like
// signal.NotifyContext's); after stop, signals regain their default
// disposition.
func Notify(parent context.Context, name string) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
			return
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "%s: %v — draining (signal again to exit immediately)\n", name, s)
			cancel()
		}
		select {
		case <-done:
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "%s: second %v — exiting\n", name, s)
			os.Exit(exitCodeInterrupted)
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(sig)
			close(done)
		})
		cancel()
	}
	return ctx, stop
}
