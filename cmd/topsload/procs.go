package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// buildServers compiles the two serving binaries from the checkout at
// root into binDir, once per invocation. The go tool's own incremental
// build makes a repeat call cheap.
func buildServers(ctx context.Context, root, binDir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/topsserve", "./cmd/topsrouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build topsserve/topsrouter in %s: %w\n%s", root, err, out)
	}
	return nil
}

// lockedBuffer collects a child's output; exec copies into it from its own
// goroutine while the parent may read it on a failure path.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one server-side child process.
type proc struct {
	name string
	bin  string
	args []string
	env  []string // added to the inherited environment
	url  string
	cmd  *exec.Cmd
	out  *lockedBuffer
	done chan struct{} // closed once the child has been reaped
}

// children tracks every live child so any exit path — error, signal,
// deadline — can kill them all. Each child leads its own process group, so
// the kill reaches anything it forked.
type children struct {
	mu   sync.Mutex
	live map[*proc]bool
}

func newChildren() *children { return &children{live: make(map[*proc]bool)} }

func (cs *children) start(p *proc) error {
	p.out = &lockedBuffer{}
	p.cmd = exec.Command(p.bin, p.args...)
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if len(p.env) > 0 {
		p.cmd.Env = append(os.Environ(), p.env...)
	}
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.done = make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // exit status is irrelevant: children end by signal
		close(p.done)
	}()
	cs.mu.Lock()
	cs.live[p] = true
	cs.mu.Unlock()
	return nil
}

// kill SIGKILLs the child's process group and waits until it is reaped.
func (cs *children) kill(p *proc) {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // ESRCH once it is gone
	<-p.done
	cs.mu.Lock()
	delete(cs.live, p)
	cs.mu.Unlock()
}

func (cs *children) killAll() {
	cs.mu.Lock()
	ps := make([]*proc, 0, len(cs.live))
	for p := range cs.live {
		ps = append(ps, p)
	}
	cs.mu.Unlock()
	for _, p := range ps {
		cs.kill(p)
	}
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it; on a loopback interface nothing else
// races for it in practice, and a lost race fails the health wait loudly.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHealthy polls /healthz until it answers 200, the child exits, or the
// context ends.
func waitHealthy(ctx context.Context, client *http.Client, p *proc) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy:\n%s", p.name, p.out.String())
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w\n%s", p.name, ctx.Err(), p.out.String())
		case <-tick.C:
		}
	}
}

// topology is one workload's set of server-side processes.
type topology struct {
	procs   []*proc // every server-side process; a router comes last
	front   *proc   // the process clients talk to
	primary *proc   // the WAL-owning process the durability drill kills
	router  *proc   // nil on a single-process topology
}

// serverProc describes a topsserve child with the serving flags left at
// their defaults: only the address, the dataset, the WAL directory, the
// shard position, the log level and extra (see boot) are set.
func serverProc(cfg *config, name, walDir string, shards, shardIndex int, extra ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addr,
		"-preset", cfg.preset, "-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-seed", strconv.FormatInt(cfg.datasetSeed, 10),
		"-wal-dir", walDir,
		"-log-level", "warn",
	}
	if shards > 1 {
		args = append(args, "-shards", strconv.Itoa(shards), "-shard-index", strconv.Itoa(shardIndex))
	}
	args = append(args, extra...)
	return &proc{name: name, bin: filepath.Join(cfg.binDir, "topsserve"), args: args, url: "http://" + addr}, nil
}

// boot starts the workload's topology cold and returns once every process
// answers /healthz. router selects topsrouter over two shard members;
// otherwise it is one topsserve primary, started with the extra flags.
func boot(ctx context.Context, cfg *config, cs *children, client *http.Client, router bool, extra ...string) (*topology, error) {
	if !router {
		p, err := serverProc(cfg, "topsserve", filepath.Join(cfg.workDir, "wal"), 1, 0, extra...)
		if err != nil {
			return nil, err
		}
		if err := cs.start(p); err != nil {
			return nil, err
		}
		if err := waitHealthy(ctx, client, p); err != nil {
			return nil, err
		}
		return &topology{procs: []*proc{p}, front: p, primary: p}, nil
	}
	const shards = 2
	// Three server processes share a box with fewer cores than that. Left
	// at the runtime's default of one scheduler thread per core, each
	// process spins idle threads on the cores the other two need: a query
	// costs 6.5 ms of CPU against 5.2 ms with one thread per process, and
	// the driver refused the default for its run-to-run spread. The flags
	// stay at their defaults; README.md has what else was tried.
	oneThread := []string{"GOMAXPROCS=1"}
	topo := &topology{}
	for j := 0; j < shards; j++ {
		p, err := serverProc(cfg, fmt.Sprintf("member%d", j), filepath.Join(cfg.workDir, fmt.Sprintf("wal%d", j)), shards, j)
		if err != nil {
			return nil, err
		}
		p.env = oneThread
		if err := cs.start(p); err != nil {
			return nil, err
		}
		topo.procs = append(topo.procs, p)
	}
	for _, p := range topo.procs {
		if err := waitHealthy(ctx, client, p); err != nil {
			return nil, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	r := &proc{name: "topsrouter", bin: filepath.Join(cfg.binDir, "topsrouter"), url: "http://" + addr, env: oneThread,
		args: []string{"-addr", addr, "-shard", topo.procs[0].url, "-shard", topo.procs[1].url, "-log-level", "warn"}}
	if err := cs.start(r); err != nil {
		return nil, err
	}
	if err := waitHealthy(ctx, client, r); err != nil {
		return nil, err
	}
	topo.primary = topo.procs[0]
	topo.procs = append(topo.procs, r)
	topo.front, topo.router = r, r
	return topo, nil
}
