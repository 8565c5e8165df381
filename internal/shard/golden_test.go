package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"netclus/internal/engine"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// walGoldenSHA256 is the SHA-256 of the log the fixed script below produced
// at the commit before the write path moved onto wal.Mutation (PR 19's
// parent). The log format is a compatibility surface — followers, crash
// recovery and cmd/topsload's twin all replay these bytes — so the constant
// changes only with a deliberate format revision.
const walGoldenSHA256 = "174c3137dab4429cef9f23f9ce01ee5c23ec8c54cbf8cc0fd19a57b62a43914b"

// goldenEngine is the surface the golden script drives: all seven typed
// mutations plus the epoch record, on either engine type.
type goldenEngine interface {
	AttachWAL(l *wal.Log) error
	BeginEpoch(epoch uint64) error
	AddSite(v roadnet.NodeID) error
	DeleteSite(v roadnet.NodeID) error
	AddSites(nodes []roadnet.NodeID) error
	AddTrajectory(tr *trajectory.Trajectory) (trajectory.ID, error)
	DeleteTrajectory(tid trajectory.ID) error
	AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error)
	DeleteTrajectories(ids []trajectory.ID) error
}

// goldenFixture builds the instance the golden script runs on (explicit
// sites 0..99 over a fixture graph and store) — call it once per engine —
// and the script itself: every payload is a literal, so what an engine
// logs for it depends on nothing but the write path.
func goldenFixture(t *testing.T) (newInst func() *tops.Instance, script func(eng goldenEngine) []func() error) {
	base, _ := buildFixture(t, 907)
	sites := make([]roadnet.NodeID, 100)
	for i := range sites {
		sites[i] = roadnet.NodeID(i)
	}
	newInst = func() *tops.Instance {
		inst, err := tops.NewInstance(base.G, base.Trajs.Clone(), append([]roadnet.NodeID(nil), sites...))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	traj := func(cum []float64, nodes ...roadnet.NodeID) *trajectory.Trajectory {
		return &trajectory.Trajectory{Nodes: nodes, CumDist: cum}
	}
	next := trajectory.ID(base.Trajs.Len())
	script = func(eng goldenEngine) []func() error {
		return []func() error{
			func() error { return eng.BeginEpoch(3) },
			func() error { return eng.AddSite(200) },
			func() error { return eng.DeleteSite(7) },
			func() error { return eng.AddSites([]roadnet.NodeID{210, 211, 305, 306, 307}) },
			func() error {
				_, err := eng.AddTrajectory(traj([]float64{0, 0.5, 1.25, 1.25}, 12, 13, 14, 40))
				return err
			},
			func() error { return eng.DeleteTrajectory(4) },
			func() error {
				_, err := eng.AddTrajectories([]*trajectory.Trajectory{
					traj([]float64{0}, 99),
					traj([]float64{0, 2.125}, 150, 3),
					traj([]float64{0, 0.0625, 0.1875}, 20, 21, 22),
				})
				return err
			},
			func() error { return eng.DeleteTrajectories([]trajectory.ID{next, 9, next + 2}) },
			func() error { return eng.DeleteSite(211) },
		}
	}
	return newInst, script
}

// runGolden drives the golden script through eng, logging into a fresh
// directory when one is given.
func runGolden(t *testing.T, name string, eng goldenEngine, script func(goldenEngine) []func() error, dir string) *wal.Log {
	t.Helper()
	var log *wal.Log
	if dir != "" {
		var err error
		if log, err = wal.Open(dir, wal.Options{Policy: wal.SyncNever}); err != nil {
			t.Fatal(err)
		}
		if err := eng.AttachWAL(log); err != nil {
			t.Fatal(err)
		}
	}
	for i, step := range script(eng) {
		if err := step(); err != nil {
			t.Fatalf("%s: step %d: %v", name, i, err)
		}
	}
	return log
}

// TestWALGolden pins the log bytes: the hash depends on the record codec
// and the commit discipline only — and it is the same for the single engine
// and the sharded one, whose log carries one record per logical mutation
// regardless of shard count.
func TestWALGolden(t *testing.T) {
	newInst, script := goldenFixture(t)
	for name, eng := range map[string]goldenEngine{
		"engine":  singleEngine(t, newInst()),
		"sharded": shardedEngine(t, newInst(), 3, HashPartitioner),
	} {
		dir := t.TempDir()
		if err := runGolden(t, name, eng, script, dir).Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("%s: segments %v, %v", name, segs, err)
		}
		sort.Strings(segs)
		h := sha256.New()
		for _, seg := range segs {
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(raw)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != walGoldenSHA256 {
			t.Errorf("%s: log SHA-256 %s, want %s", name, got, walGoldenSHA256)
		}
	}
}

// TestPerKindCounters is internal/engine's test of the same name for the
// sharded engine: the golden script (all seven kinds) applied live, the log
// it wrote replayed into a second sharded engine, and the script applied to
// a single engine all leave the same per-kind counters — every path counts
// in the one function that applies the mutation.
func TestPerKindCounters(t *testing.T) {
	newInst, script := goldenFixture(t)
	live := shardedEngine(t, newInst(), 3, HashPartitioner)
	log := runGolden(t, "live", live, script, t.TempDir())
	defer log.Close()
	replayed := shardedEngine(t, newInst(), 3, HashPartitioner)
	if _, err := wal.Replay(log, replayed); err != nil {
		t.Fatal(err)
	}
	single := singleEngine(t, newInst())
	runGolden(t, "single", single, script, "")

	counters := func(st engine.Stats) [5]uint64 {
		return [5]uint64{st.Updates, st.SiteAdds, st.SiteDeletes, st.TrajAdds, st.TrajDeletes}
	}
	want := [5]uint64{8, 6, 2, 4, 4}
	for name, st := range map[string]engine.Stats{"live": live.Stats(), "replayed": replayed.Stats(), "single": single.Stats()} {
		if got := counters(st); got != want {
			t.Errorf("%s: {updates, site adds, site deletes, traj adds, traj deletes} = %v, want %v", name, got, want)
		}
	}
	if live.LSN() != 9 || replayed.LSN() != 9 || replayed.Epoch() != 3 {
		t.Errorf("LSN live %d replayed %d (want 9, the epoch record included), replayed epoch %d", live.LSN(), replayed.LSN(), replayed.Epoch())
	}
}
