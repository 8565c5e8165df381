// Command topsload is the repository's benchmark: it builds topsserve and
// topsrouter from the checkout, boots one workload's topology cold as
// child processes with default serving flags, drives it over two
// connections, checks every answer against an in-process twin, and prints
// every metric by name with its unit. The last line of standard output is
// the machine-readable result BENCHMARK.json describes. See README.md.
//
// Usage (normally through run.sh, which builds this program first):
//
//	topsload -workload serve_hot -seed 7 -seconds 10 -trace 0
//	topsload -seed 7            # every workload, untraced then traced
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is one invocation's settings. Only the first block is set from
// the command line; the rest are fixed by defaultConfig, and the smoke test
// overrides the dataset and the two durations in-process.
type config struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    int

	preset      string
	scale       float64
	datasetSeed int64

	binDir  string
	workDir string

	warm       time.Duration // unrecorded traffic after the mix has been issued once
	rungBudget time.Duration // time spent on one ladder rung
}

func defaultConfig() config {
	return config{
		// bangalore at its smallest: 2000 nodes (all of them sites), 500
		// trajectories, 9 ladder instances. A cold build takes ~3 s here;
		// the next larger candidate (beijing 0.01) takes 8 s and would
		// spend the driver's time budget on set-up.
		//
		// The dataset's own seed is fixed: build time, matching cost and
		// cover sizes differ by up to 2x between generated cities, which
		// would drown every run-to-run comparison. -seed varies everything
		// laid over the city instead.
		preset: "bangalore", scale: 0.01, datasetSeed: 7,
		warm:       time.Second,
		rungBudget: 300 * time.Millisecond,
	}
}

var workloadNames = []string{"serve_hot", "serve_churn", "router_hot", "ingest_stream"}

// benchSpec is the part of BENCHMARK.json this program reads: the metric
// names select what goes into the result line, so the file and the
// program cannot drift apart silently.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("topsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.root, "root", "", "checkout to build the servers from (default: found upward from the working directory)")
	fs.StringVar(&cfg.workload, "workload", "all", "serve_hot, serve_churn, router_hot, ingest_stream, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the flipped site, connection offsets, arrival jitter and GPS noise")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&cfg.trace, "trace", 0, "1 runs the traced pass (spans, ladder, per-layer metrics); with -workload all both passes run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(stderr, "topsload: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if err := runAll(&cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "topsload:", err)
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the checkout: the
// directory that holds both BENCHMARK.json and the servers' sources.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "topsserve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout with BENCHMARK.json and cmd/topsserve above the working directory; pass -root")
		}
		dir = parent
	}
}

// runDeadline bounds one invocation of one workload; the driver allows
// 180 s, and a hung child must not turn into a hung benchmark.
const runDeadline = 170 * time.Second

func runAll(cfg *config, stdout io.Writer) error {
	if cfg.root == "" {
		root, err := findRoot()
		if err != nil {
			return err
		}
		cfg.root = root
	}
	spec, err := readBenchSpec(cfg.root)
	if err != nil {
		return err
	}
	build := filepath.Join(cfg.root, ".bench_build")
	cfg.binDir = filepath.Join(build, "bin")
	cfg.workDir = filepath.Join(build, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.workDir)

	cs := newChildren()
	defer cs.killAll()
	sigCtx, stopSig := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSig()

	t0 := time.Now()
	if err := buildServers(sigCtx, cfg.root, cfg.binDir); err != nil {
		return err
	}
	prepS := time.Since(t0).Seconds()

	type pass struct {
		workload string
		trace    bool
	}
	var passes []pass
	if cfg.workload == "all" {
		for _, w := range workloadNames {
			passes = append(passes, pass{w, false}, pass{w, true})
		}
	} else {
		passes = append(passes, pass{cfg.workload, cfg.trace == 1})
	}
	for _, p := range passes {
		ctx, cancel := context.WithTimeout(sigCtx, runDeadline)
		// A child stuck in a system call ignores a cancelled context; the
		// watchdog kills the process groups so every wait below returns.
		watchdog := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				cs.killAll()
			case <-watchdog:
			}
		}()
		rep, err := runWorkload(ctx, cfg, cs, p.workload, p.trace, prepS)
		close(watchdog)
		cancel()
		cs.killAll()
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("%s: %w (%v)", p.workload, ctx.Err(), err)
			}
			return fmt.Errorf("%s: %w", p.workload, err)
		}
		rep.print(stdout)
		names := spec.EndToEnd
		if p.trace {
			names = spec.PerLayer
		}
		line, err := rep.resultLine(names)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}
