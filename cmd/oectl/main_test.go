package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"openembedding/internal/optim"
	"openembedding/internal/ps"
	"openembedding/internal/psengine"
)

// TestPingNodesUnreachableRow: oectl ping prints an ok row for a live node
// and an UNREACHABLE row — naming the cause — for a dead address, well
// inside its 3s deadlines: it dials with a single attempt, so neither the
// default three tries nor their backoff stretch the sweep.
func TestPingNodesUnreachableRow(t *testing.T) {
	live, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{
		Store: psengine.Config{Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: 256, CacheEntries: 64},
		Serve: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// A port that was just listening and no longer is: connects are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	var out strings.Builder
	start := time.Now()
	unreachable := pingNodes(&out, []string{live.Addr(), dead})
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("ping sweep took %v, want well under the 3s deadlines", took)
	}
	if len(unreachable) != 1 || !strings.Contains(unreachable[0], "node 1 ("+dead+")") {
		t.Fatalf("unreachable = %v, want exactly node 1 (%s)", unreachable, dead)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 2 {
		t.Fatalf("ping printed %d rows, want 2:\n%s", len(rows), out.String())
	}
	if !strings.HasPrefix(rows[0], live.Addr()) || !strings.Contains(rows[0], " ok ") || !strings.Contains(rows[0], "serving") {
		t.Fatalf("live row = %q", rows[0])
	}
	if !strings.HasPrefix(rows[1], dead) || !strings.Contains(rows[1], "UNREACHABLE") || !strings.Contains(rows[1], "dial") {
		t.Fatalf("dead row = %q, want an UNREACHABLE row naming the dial failure", rows[1])
	}
}
