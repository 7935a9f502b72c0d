// Command mtvserve serves the reproduction's simulation results over
// HTTP/JSON: submit single runs and batch sweeps, stream run progress
// as server-sent events, and regenerate whole experiments — all backed
// by the session engine's cache tiers, so anything simulated before
// (by this process, or by any process sharing the -store directory, or
// by any -peers worker) is served with zero simulations and explicit
// cache-hit metadata.
//
//	mtvserve -addr :8372 -store /var/lib/mtvec/store
//
// The same binary serves three roles (see docs/CLUSTER.md):
//
//	standalone  the single-node server (default)
//	worker      a standalone node behind a coordinator; -peers lets its
//	            store warm-start from the other workers' records
//	coordinator shards sweeps across -peers workers by store persist
//	            key, with retries, hedging and cluster-wide coalescing
//
// Endpoints (see docs/API.md for request/response schemas):
//
//	GET  /healthz                  liveness + cache counters
//	GET  /readyz                   readiness (503 while draining)
//	GET  /metrics                  Prometheus text metrics
//	GET  /api/v1/workloads         the Table 3 program catalog
//	GET  /api/v1/experiments       the paper's experiment catalog
//	GET  /api/v1/experiments/{id}  regenerate one experiment (text|markdown)
//	POST /api/v1/run               one simulation point -> Report + cache metadata
//	POST /api/v1/sweep             batch: base spec x {contexts, latencies, policies}
//	GET  /api/v1/stream            one point as SSE: progress/span events, then the result
//	GET  /api/v1/cluster           topology + worker health (coordinator only)
//	GET  /api/v1/store/record      record exchange for peer warm-start (-store nodes)
//
// Run and stream responses carry X-Mtvec-Cache: sim | memo | store |
// peer; sweeps report the tier per point in the body, and experiment
// responses report their actual cost in X-Mtvec-Simulations — so
// callers (and load tests) can always tell computed results from
// served ones.
//
// On SIGINT/SIGTERM the server drains: /readyz flips to 503 (so
// coordinators stop routing to it), in-flight requests get
// -drain-timeout to finish, then the rest are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mtvec"
	"mtvec/internal/cluster"
)

func main() {
	var (
		addr     = flag.String("addr", ":8372", "listen address")
		role     = flag.String("role", "standalone", "serving role: standalone | worker | coordinator")
		peers    = flag.String("peers", "", "comma-separated base URLs: the coordinator's workers, or a worker's warm-start peers")
		storeDir = flag.String("store", "", "persistent result store directory (empty = in-memory caches only)")
		scale    = flag.Float64("scale", mtvec.DefaultScale, "workload scale relative to Table 3 millions (must match across the cluster)")
		jobs     = flag.Int("jobs", runtime.NumCPU(), "max concurrent simulations")
		stealAge = flag.Duration("store-steal-age", 0, "age after which another process's store lock is presumed dead (0 = default)")
		hedge    = flag.Duration("hedge-after", 30*time.Second, "coordinator: race a duplicate sub-sweep against shards slower than this (0 = off)")
		probe    = flag.Duration("probe-interval", time.Second, "coordinator: worker readiness probe interval")
		drainFor = flag.Duration("drain-timeout", 10*time.Second, "how long in-flight requests may finish after SIGTERM")
	)
	flag.Parse()

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}

	// Both roles expose the same trio: routes, a drain switch, and a
	// final close once the listener is down.
	var (
		handler http.Handler
		drain   func()
		finish  func()
	)
	switch *role {
	case "standalone", "worker":
		srv, err := cluster.NewServer(cluster.Config{
			Scale:    *scale,
			Jobs:     *jobs,
			StoreDir: *storeDir,
			StealAge: *stealAge,
			Peers:    peerList,
		})
		if err != nil {
			log.Fatalln("mtvserve:", err)
		}
		handler, drain, finish = srv.Handler(), srv.StartDraining, func() {}
	case "coordinator":
		if len(peerList) == 0 {
			log.Fatalln("mtvserve: -role coordinator requires -peers")
		}
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Scale:         *scale,
			Workers:       peerList,
			HedgeAfter:    *hedge,
			ProbeInterval: *probe,
		})
		if err != nil {
			log.Fatalln("mtvserve:", err)
		}
		handler, drain, finish = coord.Handler(), coord.StartDraining, coord.Close
	default:
		log.Fatalf("mtvserve: unknown role %q (standalone | worker | coordinator)", *role)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("mtvserve: %s listening on %s (scale %g, jobs %d, store %q, peers %d)",
		*role, *addr, *scale, *jobs, *storeDir, len(peerList))

	select {
	case err := <-errc:
		log.Fatalln("mtvserve:", err)
	case <-ctx.Done():
	}

	// Graceful drain: readiness goes down first so coordinators stop
	// routing here, in-flight requests get the drain window, and
	// whatever is still running after it is cancelled outright.
	drain()
	log.Printf("mtvserve: draining (up to %s)", *drainFor)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Println("mtvserve: drain deadline hit, cancelling in-flight requests")
		} else {
			log.Println("mtvserve: shutdown:", err)
		}
		hs.Close()
	}
	finish()
	fmt.Fprintln(os.Stderr, "mtvserve: stopped")
}
