// Command tukey-lb fronts N stateless console replicas (tukey-server
// -state-url) with one address.
//
// Requests carrying a session token stick to a replica by consistent hash
// (affinity keeps connections and caches warm); logins round-robin. Every
// -probe interval each backend's /healthz is checked: failures mark it
// down (its sessions transparently remap and in-flight requests retry on
// a sibling), and -evict-after consecutive failures remove it from the
// ring for good. Because the replicas keep their state in tukey-state,
// losing one loses nothing — the balancer only has to stop sending
// traffic at the corpse.
//
// With -operator-secret the balancer serves its own health accounting —
// retries, mark-downs, evictions, live backend counts — at GET /metrics
// behind the federation's operator gate. SIGINT or SIGTERM stops the
// probes, drains in-flight requests and exits.
//
// Usage:
//
//	tukey-lb -backend http://host1:8080 -backend http://host2:8080
//	         [-addr :8000] [-probe 2s] [-evict-after 5] [-operator-secret S]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"osdc/internal/fanout"
	"osdc/internal/lb"
	"osdc/internal/telemetry"
	"osdc/internal/wire"
)

// backendList collects repeated -backend flags.
type backendList []string

func (b *backendList) String() string { return strings.Join(*b, ",") }

func (b *backendList) Set(v string) error {
	*b = append(*b, v)
	return nil
}

func main() {
	ctx, stop := wire.NotifyShutdown()
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tukey-lb:", err)
		os.Exit(1)
	}
}

// run is the balancer's whole life: it parses args, serves until ctx ends
// and returns nil, or returns why it could not.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	flags := flag.NewFlagSet("tukey-lb", flag.ContinueOnError)
	flags.SetOutput(stderr)
	addr := flags.String("addr", ":8000", "balancer listen address")
	probe := flags.Duration("probe", 2*time.Second, "health-probe interval (0 = passive mark-down only)")
	evictAfter := flags.Int("evict-after", 5, "evict a backend after this many consecutive failed probes (0 = never)")
	operatorSecret := flags.String("operator-secret", "", "serve GET /metrics behind this operator secret (\"\" = no metrics plane)")
	var backends backendList
	flags.Var(&backends, "backend", "console replica base URL (repeatable)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if len(backends) == 0 {
		return errors.New("at least one -backend is required")
	}

	pool := lb.NewPool(backends, nil)
	if *probe > 0 {
		deadline := fanout.RoundDeadline(*probe)
		probes := fanout.Every(*probe, func() { pool.Probe(*evictAfter, deadline) })
		defer probes.Stop()
	}
	reg := telemetry.NewRegistry()
	pool.RegisterMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.ServeMetrics(*operatorSecret, reg, w, r)
	})
	mux.Handle("/", pool)
	fmt.Fprintf(stderr, "tukey-lb on %s over %d replicas (probe %v, evict after %d)\n",
		*addr, len(backends), *probe, *evictAfter)
	return wire.Serve(ctx, *addr, mux)
}
