// Command tukey-state serves the console's shared state plane: one
// SessionStore and one per-user rate limiter, spoken over HTTP by every
// stateless console replica (tukey-server -state-url).
//
// The store defaults to in-memory; -session-file backs it with the
// append-only session log, so the *state plane* restarting keeps everyone
// logged in (replicas restarting never mattered — that is the point).
// Rate limiting is configured here, not on the replicas: the budget is
// per user, not per user per replica.
//
// Usage:
//
//	tukey-state [-addr :9200] [-session-file sessions.json]
//	            [-rate-limit N] [-rate-burst M] [-operator-secret S]
//
// With -operator-secret the state plane serves GET /metrics behind the
// federation's operator gate. SIGINT or SIGTERM drains in-flight requests
// and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"osdc/internal/tukey"
	"osdc/internal/tukeystate"
	"osdc/internal/wire"
)

func main() {
	ctx, stop := wire.NotifyShutdown()
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tukey-state:", err)
		os.Exit(1)
	}
}

// run is the state plane's whole life: it parses args, serves until ctx
// ends and returns nil, or returns why it could not.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	flags := flag.NewFlagSet("tukey-state", flag.ContinueOnError)
	flags.SetOutput(stderr)
	addr := flags.String("addr", ":9200", "state plane listen address")
	sessionFile := flags.String("session-file", "", "persist sessions to this append-only log (\"\" = in-memory)")
	rateLimit := flags.Float64("rate-limit", 0, "per-user console requests/second shared across replicas (0 = unlimited)")
	rateBurst := flags.Float64("rate-burst", 0, "per-user burst size (0 = 2× -rate-limit)")
	operatorSecret := flags.String("operator-secret", "", "serve GET /metrics behind this operator secret (\"\" = metrics plane absent)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	var store tukey.SessionStore = tukey.NewMemorySessionStore()
	if *sessionFile != "" {
		fs, err := tukey.NewFileSessionStore(*sessionFile)
		if err != nil {
			return err
		}
		if n := fs.Count(); n > 0 {
			fmt.Fprintf(stderr, "session log %s: %d sessions survive the restart\n", *sessionFile, n)
		}
		store = fs
	}
	var limiter tukey.Limiter
	if *rateLimit > 0 {
		burst := *rateBurst
		if burst <= 0 {
			burst = 2 * *rateLimit
		}
		limiter = tukey.NewRateLimiter(*rateLimit, burst)
		fmt.Fprintf(stderr, "shared rate limiter: %g req/s per user, burst %g\n", *rateLimit, burst)
	}
	srv := tukeystate.NewServer(store, limiter)
	srv.OperatorSecret = *operatorSecret
	fmt.Fprintf(stderr, "tukey-state on %s\n", *addr)
	return wire.Serve(ctx, *addr, srv)
}
