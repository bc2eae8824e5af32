package wire

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// listen starts a Server on an ephemeral loopback port, closed with the test.
func listen(t *testing.T, h http.Handler) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestCloseDropsSilentConnection: a connection that was accepted but has
// sent nothing does not hold Close, which http.Server.Shutdown alone would
// do for 5 s.
func TestCloseDropsSilentConnection(t *testing.T) {
	s := listen(t, http.NotFoundHandler())
	conn, err := net.Dial("tcp", strings.TrimPrefix(s.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		s.mu.Lock()
		n := len(s.fresh)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never accepted the connection")
		}
	}
	start := time.Now()
	s.Close()
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Fatalf("Close took %v with one silent connection, want < 100ms", took)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the silent connection is still open after Close")
	}
}

// TestCloseLetsInFlightRequestFinish: Close waits for a request whose
// handler is running, and its client gets the whole answer.
func TestCloseLetsInFlightRequestFinish(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := listen(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		_, _ = io.WriteString(w, "done")
	}))
	got := make(chan string, 1)
	go func() {
		resp, err := http.Get(s.URL)
		if err != nil {
			got <- err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- string(body)
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a request was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if body := <-got; body != "done" {
		t.Fatalf("in-flight request got %q, want done", body)
	}
	<-closed
	if _, err := http.Get(s.URL); err == nil {
		t.Fatal("a closed server answered a new request")
	}
}

// TestBodyOverMaxBodyBytes: a declared body over MaxBodyBytes gets 413
// before the handler runs; one at the bound reaches it whole.
func TestBodyOverMaxBodyBytes(t *testing.T) {
	s := listen(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	}))
	post := func(n int) int {
		resp, err := http.Post(s.URL, "application/octet-stream", strings.NewReader(strings.Repeat("x", n)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(MaxBodyBytes + 1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over the bound = %d, want 413", code)
	}
	if code := post(MaxBodyBytes); code != http.StatusOK {
		t.Fatalf("body at the bound = %d, want 200", code)
	}
}

// TestServeReturnsListenerError: an address that cannot be listened on
// comes back from Serve at once.
func TestServeReturnsListenerError(t *testing.T) {
	s := listen(t, http.NotFoundHandler())
	if err := Serve(context.Background(), strings.TrimPrefix(s.URL, "http://"), http.NotFoundHandler()); err == nil {
		t.Fatal("Serve on a taken address returned nil")
	}
}

// TestOperatorGate pins the one 404/403 ladder and its texts.
func TestOperatorGate(t *testing.T) {
	for _, c := range []struct {
		name, secret, header string
		code                 int
		msg                  string
	}{
		{"no secret configured", "", "s3", http.StatusNotFound, "metrics plane requires an operator secret"},
		{"no header", "s3", "", http.StatusForbidden, "metrics plane requires X-OSDC-Operator"},
		{"wrong header", "s3", "s4", http.StatusForbidden, "metrics plane requires X-OSDC-Operator"},
		{"matching header", "s3", "s3", http.StatusOK, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := listen(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if OperatorGate(c.secret, "metrics", w, r) {
					WriteJSON(w, http.StatusOK, struct{}{})
				}
			}))
			code, msg, err := Call(context.Background(), NewClient(nil, time.Minute, 0), http.MethodGet, s.URL, c.header, nil, nil, http.StatusOK)
			if code != c.code || msg != c.msg || err != nil {
				t.Fatalf("gate = %d %q %v, want %d %q", code, msg, err, c.code, c.msg)
			}
		})
	}
}
