// Command topsrouter fronts a shard-per-process NETCLUS topology: each
// shard is its own topsserve process started with -shard-index. Per query
// the router fetches every owning member's masked cover at once
// (POST /v1/shard/cover, one binary body each) and runs the distributed
// greedy itself — the routing core (shard.Sharded) an in-process topology
// runs, over HTTP — so /v1/query answers are bit-exact against a
// single-process engine over the same dataset. It decodes /v1/query bodies with topsserve's own decoder, so
// both accept the same queries, fm ones included.
//
// The router is stateless (no index, no WAL): it holds only the shard
// map, a dense site-id mirror, and cached cluster-ownership tables it can
// rebuild from the members at any time — kill it and restart it freely.
//
// -shard lists one shard's member URLs, primary first, followers after;
// repeat the flag once per shard, in shard order:
//
//	topsserve -preset beijing-small -shards 2 -shard-index 0 -addr :8081 &
//	topsserve -preset beijing-small -shards 2 -shard-index 1 -addr :8082 &
//	topsrouter -addr :8080 -shard http://localhost:8081 -shard http://localhost:8082
//
// With per-shard replication, list the followers too; a member failure
// mid-query fails over to the next URL (the cover endpoint is read-only,
// so an un-promoted follower can serve it):
//
//	topsrouter -addr :8080 \
//	  -shard http://localhost:8081,http://localhost:9081 \
//	  -shard http://localhost:8082,http://localhost:9082
//
// Query and mutate it exactly like a topsserve primary:
//
//	curl -s -X POST localhost:8080/v1/query -d '{"k":5,"tau":0.8}'
//	curl -s -X POST localhost:8080/v1/update -d '{"op":"delete_site","node":17}'
//	curl -s localhost:8080/v1/topology
//
// After a shard primary dies and its follower is promoted
// (POST /v1/promote on the follower), re-point the router:
//
//	curl -s -X POST localhost:8080/v1/topology \
//	  -d '{"shard":1,"primary":"http://localhost:9082"}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netclus"
)

// shardList collects repeated -shard flags, each a comma-separated member
// URL list (primary first).
type shardList [][]string

func (s *shardList) String() string {
	parts := make([]string, len(*s))
	for i, urls := range *s {
		parts[i] = strings.Join(urls, ",")
	}
	return strings.Join(parts, " ")
}

func (s *shardList) Set(v string) error {
	var urls []string
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(u), "/"))
		if u == "" {
			continue
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return fmt.Errorf("-shard needs at least one member URL")
	}
	*s = append(*s, urls)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	var shards shardList
	var (
		addr          string
		shardTimeout  time.Duration
		queryAttempts int
		drainTimeout  time.Duration
		pprofAddr     string
		logLevel      string
		logFormat     string
		slowQuery     time.Duration
	)
	flag.StringVar(&addr, "addr", ":8080", "listen address")
	flag.Var(&shards, "shard", "one shard's member URLs, comma-separated, primary first; repeat per shard in shard order")
	flag.DurationVar(&shardTimeout, "shard-timeout", 10*time.Second, "per-member call timeout")
	flag.IntVar(&queryAttempts, "query-attempts", 3, "how many times a query restarts after a member failure before answering 503")
	flag.DurationVar(&drainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests")
	flag.StringVar(&pprofAddr, "pprof", "", "serve net/http/pprof profiling endpoints on this address (e.g. localhost:6061); empty disables")
	flag.StringVar(&logLevel, "log-level", "info", "structured log level: debug, info, warn, or error")
	flag.StringVar(&logFormat, "log-format", "text", "structured log encoding: text or json")
	flag.DurationVar(&slowQuery, "slow-query", 0, "log a structured record for routed queries slower than this (e.g. 250ms); 0 disables")
	flag.Parse()

	if len(shards) == 0 {
		fatal(fmt.Errorf("at least one -shard is required (topsserve processes started with -shard-index)"))
	}
	lvl, err := netclus.ParseLogLevel(logLevel)
	if err != nil {
		fatal(err)
	}
	logger, err := netclus.NewLogger(os.Stderr, lvl, logFormat)
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	r, err := netclus.NewRouter(netclus.RouterOptions{
		Shards:        shards,
		ShardTimeout:  shardTimeout,
		QueryAttempts: queryAttempts,
		Logger:        logger,
		SlowQuery:     slowQuery,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("routing %d shards on %s (validated topology in %.3fs)\n", r.Shards(), addr, time.Since(t0).Seconds())
	if pprofAddr != "" {
		go servePprof(pprofAddr)
	}

	httpSrv := &http.Server{Addr: addr, Handler: r}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Printf("\n%s: draining (up to %v)…\n", sig, drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", err)
	}
	fmt.Println("drained; bye")
}

// servePprof exposes the runtime profiling endpoints on their own listener,
// mirroring topsserve: the debug surface never shares the query API's
// address (which may be public).
//
//	go tool pprof http://localhost:6061/debug/pprof/profile?seconds=10
//	curl -s localhost:6061/debug/pprof/heap -o heap.pb.gz
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Printf("pprof on %s\n", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
	}
}
