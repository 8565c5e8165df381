package shard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"testing"

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
// mutations plus the epoch record.
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

// hashSegments is the SHA-256 of a log directory's segments in name order.
func hashSegments(t *testing.T, h hash.Hash, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("%s: segments %v, %v", dir, segs, err)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(raw)
	}
}

// memberGoldenSHA256 is the SHA-256 of the three members' logs (member 0's
// segments, then member 1's, then member 2's) after memberScript is routed
// over a 3-shard hash topology of the golden fixture, each member having
// opened epoch 3 first. Recorded at the commit before the routing core
// moved into this package, where internal/router routed the same wire
// updates: a member logs what its engine applied, whoever routes to it.
const memberGoldenSHA256 = "618f56766842dd5f121065dd91d92d0694465d055c10bbb40a3a596831c07116"

// memberScript is the golden script in the form a router receives it: one
// wire update per item (the batches split), trajectories as node sequences
// the members price over the graph.
func memberScript(next int64) []wal.Update {
	site := func(op wal.Kind, v int64) wal.Update { return wal.Update{Op: op.String(), Node: v} }
	traj := func(nodes ...int64) wal.Update { return wal.Update{Op: wal.KindAddTrajectory.String(), Nodes: nodes} }
	del := func(id int64) wal.Update { return wal.Update{Op: wal.KindDeleteTrajectory.String(), ID: id} }
	return []wal.Update{
		site(wal.KindAddSite, 200),
		site(wal.KindDeleteSite, 7),
		site(wal.KindAddSite, 210), site(wal.KindAddSite, 211), site(wal.KindAddSite, 305),
		site(wal.KindAddSite, 306), site(wal.KindAddSite, 307),
		traj(12, 13, 14, 40),
		del(4),
		traj(99), traj(150, 3), traj(20, 21, 22),
		del(next), del(9), del(next + 2),
		site(wal.KindDeleteSite, 211),
	}
}

// TestWALGolden pins the log bytes: the single engine's log for the golden
// script depends on the record codec and the commit discipline only, and a
// sharded topology's member logs for its wire form on those and on how
// updates are routed.
func TestWALGolden(t *testing.T) {
	newInst, script := goldenFixture(t)
	dir := t.TempDir()
	if err := runGolden(t, "engine", singleEngine(t, newInst()), script, dir).Close(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashSegments(t, h, dir)
	if got := hex.EncodeToString(h.Sum(nil)); got != walGoldenSHA256 {
		t.Errorf("engine: log SHA-256 %s, want %s", got, walGoldenSHA256)
	}

	inst := newInst()
	next := int64(inst.Trajs.Len())
	s := shardedEngine(t, inst, 3)
	var dirs []string
	for j, m := range membersOf(s) {
		dirs = append(dirs, t.TempDir())
		log, err := wal.Open(dirs[j], wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		if err := m.AttachWAL(log); err != nil {
			t.Fatal(err)
		}
		if err := m.BeginEpoch(3); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range memberScript(next) {
		if _, err := s.Update(context.Background(), u); err != nil {
			t.Fatalf("sharded: update %d (%s): %v", i, u.Op, err)
		}
	}
	h = sha256.New()
	for _, dir := range dirs {
		hashSegments(t, h, dir)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != memberGoldenSHA256 {
		t.Errorf("sharded: member logs SHA-256 %s, want %s", got, memberGoldenSHA256)
	}
}
