package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRefusesCorruptSessionFile: a session log that does not parse
// stops the state plane with an error naming the file, and the file is
// left as it was for an operator to inspect.
func TestRunRefusesCorruptSessionFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.json")
	corrupt := []byte("not a session log\n")
	if err := os.WriteFile(path, corrupt, 0o600); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-session-file", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("run on a corrupt session file = %v, want an error naming %s", err, path)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, corrupt) {
		t.Fatalf("corrupt session file rewritten to %q", got)
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
	if err := run(context.Background(), []string{"-addr", ln.Addr().String()}, io.Discard); err == nil {
		t.Fatalf("run on the taken address %s returned nil", ln.Addr())
	}
}

// TestRunReturnsNilWhenContextEnds: a shutdown signal (here, a context
// already cancelled) is a clean exit.
func TestRunReturnsNilWhenContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-addr", "127.0.0.1:0"}, io.Discard); err != nil {
		t.Fatalf("run with a cancelled context = %v, want nil", err)
	}
}
