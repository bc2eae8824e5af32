package wire

import (
	"context"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// The one server edge's settings. There is no WriteTimeout or ReadTimeout:
// /console/stream (SSE) and /debug/pprof/profile are long responses.
const (
	// ReadHeaderTimeout bounds how long a connection may take to send a
	// request's headers.
	ReadHeaderTimeout = 30 * time.Second
	// IdleTimeout bounds how long a kept-alive connection waits for its
	// next request.
	IdleTimeout = 2 * time.Minute
	// MaxBodyBytes bounds every request body, and every response body a
	// client reads whole (ReadBody). The largest body any plane takes, a
	// login or a launch, is under 1 KB.
	MaxBodyBytes = 1 << 20
	// ShutdownGrace is how long Close waits for in-flight requests before
	// it cuts their connections.
	ShutdownGrace = 5 * time.Second
)

// Server is one listener serving one handler with the edge's settings.
type Server struct {
	URL string

	srv  *http.Server
	done chan struct{} // closed once the accept loop has returned
	err  error         // the accept loop's error, read after done

	mu    sync.Mutex
	fresh map[net.Conn]struct{} // accepted, no request read yet; nil once closing
}

// Listen serves h on addr ("127.0.0.1:0" for an ephemeral loopback port).
// A declared body over MaxBodyBytes gets 413 before h runs; an undeclared
// one fails h's read with *http.MaxBytesError past the limit.
func Listen(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{URL: "http://" + ln.Addr().String(), done: make(chan struct{}), fresh: map[net.Conn]struct{}{}}
	bounded := http.MaxBytesHandler(h, MaxBodyBytes)
	s.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.ContentLength > MaxBodyBytes {
				http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
				return
			}
			bounded.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
		ConnState:         s.track,
	}
	go func() {
		defer close(s.done)
		s.err = s.srv.Serve(ln)
	}()
	return s, nil
}

// track keeps the set of connections that have not sent a request; once
// Close has begun it drops a new one at once.
func (s *Server) track(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case state != http.StateNew:
		delete(s.fresh, c)
	case s.fresh == nil:
		_ = c.Close()
	default:
		s.fresh[c] = struct{}{}
	}
}

// Close stops accepting, closes idle connections and ones that have sent
// nothing, and waits up to ShutdownGrace for in-flight requests before it
// cuts what is left; it returns once the accept loop has too. A
// connection that has sent nothing would otherwise hold
// http.Server.Shutdown for 5 s; net/http's transport leaves such
// connections behind when it races dials.
func (s *Server) Close() {
	s.mu.Lock()
	for c := range s.fresh {
		_ = c.Close()
	}
	s.fresh = nil
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// NotifyShutdown returns a context that ends when one of the signals that
// end a binary's serving life, SIGINT and SIGTERM, arrives; stop releases
// them.
func NotifyShutdown() (ctx context.Context, stop context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Serve is a binary's whole serving life: it listens on addr, serves h
// until ctx ends, then closes. A listener that fails, at once or later,
// comes back as the error.
func Serve(ctx context.Context, addr string, h http.Handler) error {
	s, err := Listen(addr, h)
	if err != nil {
		return err
	}
	defer s.Close()
	select {
	case <-ctx.Done():
		return nil
	case <-s.done:
		return s.err
	}
}
