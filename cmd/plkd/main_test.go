package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"phylo/internal/server"
)

// TestTenantQueueZeroFailsFast: `-tenant-queue 0` means no queue, as its
// help says. With the tenant's one slot held, its next request is refused at
// once instead of parking.
func TestTenantQueueZeroFailsFast(t *testing.T) {
	o, err := parseFlags([]string{"-tenant-inflight", "1", "-tenant-queue", "0"})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(o.cfg)
	defer srv.Drain(context.Background())
	release, err := srv.Admission().Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := srv.Admission().Acquire(ctx, "t"); !errors.Is(err, server.ErrQueueFull) {
		t.Fatalf("over-quota request under -tenant-queue 0: %v, want %v", err, server.ErrQueueFull)
	}
}

// TestStartUpLineSchedule: the start-up line names the strategy the server
// runs, not the spelling it was asked for.
func TestStartUpLineSchedule(t *testing.T) {
	for flag, want := range map[string]string{"lpt": "weighted", "cost": "weighted", "stride": "cyclic", "cyclic": "cyclic"} {
		o, err := parseFlags([]string{"-schedule", flag})
		if err != nil {
			t.Fatal(err)
		}
		if got := o.cfg.Schedule().String(); got != want {
			t.Errorf("-schedule %s: server runs %s, want %s", flag, got, want)
		}
	}
	if _, err := parseFlags([]string{"-schedule", "block"}); err == nil {
		t.Error("-schedule block accepted")
	}
}
