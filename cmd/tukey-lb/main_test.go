package main

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
)

func TestRunRequiresBackend(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-backend") {
		t.Fatalf("run without -backend = %v, want an error naming -backend", err)
	}
}

// TestRunReturnsListenError: an address already taken comes back as the
// error instead of ending the process.
func TestRunReturnsListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = run(context.Background(), []string{"-addr", ln.Addr().String(), "-backend", "http://127.0.0.1:1"}, io.Discard)
	if err == nil {
		t.Fatalf("run on the taken address %s returned nil", ln.Addr())
	}
}

// TestRunReturnsNilWhenContextEnds: a shutdown signal (here, a context
// already cancelled) is a clean exit.
func TestRunReturnsNilWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-backend", "http://127.0.0.1:1"}, io.Discard); err != nil {
		t.Fatalf("run with a cancelled context = %v, want nil", err)
	}
}
