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
	"flag"
	"log"

	"osdc/internal/tukey"
	"osdc/internal/tukeystate"
	"osdc/internal/wire"
)

func main() {
	addr := flag.String("addr", ":9200", "state plane listen address")
	sessionFile := flag.String("session-file", "", "persist sessions to this append-only log (\"\" = in-memory)")
	rateLimit := flag.Float64("rate-limit", 0, "per-user console requests/second shared across replicas (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 0, "per-user burst size (0 = 2× -rate-limit)")
	operatorSecret := flag.String("operator-secret", "", "serve GET /metrics behind this operator secret (\"\" = metrics plane absent)")
	flag.Parse()

	var store tukey.SessionStore = tukey.NewMemorySessionStore()
	if *sessionFile != "" {
		fs, err := tukey.NewFileSessionStore(*sessionFile)
		if err != nil {
			log.Fatal(err)
		}
		if n := fs.Count(); n > 0 {
			log.Printf("session log %s: %d sessions survive the restart", *sessionFile, n)
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
		log.Printf("shared rate limiter: %g req/s per user, burst %g", *rateLimit, burst)
	}
	srv := tukeystate.NewServer(store, limiter)
	srv.OperatorSecret = *operatorSecret
	log.Printf("tukey-state on %s", *addr)
	ctx, stop := wire.NotifyShutdown()
	defer stop()
	if err := wire.Serve(ctx, *addr, srv); err != nil {
		log.Fatal(err)
	}
}
