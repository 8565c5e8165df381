package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"netclus/internal/roadnet"
	"netclus/internal/trajectory"
)

// refRegisterTrajectory is registerTrajectory as it was before its
// per-instance scratch: a map of per-cluster minima and a map-based dedup
// of the consecutive-run cluster sequence. It is the oracle for the TL
// entries and CC lists the scratch version must reproduce exactly.
func refRegisterTrajectory(ins *Instance, tid trajectory.ID, tr *trajectory.Trajectory) {
	best := make(map[ClusterID]float64, 8)
	var seq []ClusterID
	var last ClusterID = InvalidCluster
	for _, v := range tr.Nodes {
		c := ins.NodeCluster[v]
		if c != last {
			seq = append(seq, c)
			last = c
		}
		cur, ok := best[c]
		if !ok {
			cur = math.Inf(1)
		}
		if d := ins.nodeCenterDr[v]; d < cur {
			best[c] = d
		}
	}
	dedup := seq[:0]
	seen := make(map[ClusterID]bool, len(seq))
	for _, c := range seq {
		if !seen[c] {
			seen[c] = true
			dedup = append(dedup, c)
		}
	}
	for int(tid) >= len(ins.CC) {
		ins.CC = append(ins.CC, nil)
	}
	ins.CC[tid] = append([]ClusterID(nil), dedup...)
	for _, c := range dedup {
		ins.Clusters[c].TL = append(ins.Clusters[c].TL, TrajEntry{Traj: tid, Dr: best[c]})
	}
}

// TestRegisterTrajectoryMatchesMapReference registers the same random
// walks — which leave and re-enter clusters — into two empty copies of
// every rung, one through registerTrajectory and one through the map-based
// reference, and requires identical CC lists and bit-identical TL entries.
// The second registration repeats the first walk right as the epoch
// wraps, so stale stamps from the first would show.
func TestRegisterTrajectoryMatchesMapReference(t *testing.T) {
	idx, inst := buildTestIndex(t, 91, false)
	g := inst.G
	rng := rand.New(rand.NewSource(92))
	var walks []*trajectory.Trajectory
	for len(walks) < 300 {
		v := roadnet.NodeID(rng.Intn(g.NumNodes()))
		nodes := []roadnet.NodeID{v}
		for step := rng.Intn(60); step > 0; step-- {
			var next []roadnet.NodeID
			g.Neighbors(v, func(to roadnet.NodeID, _ float64) bool {
				next = append(next, to)
				return true
			})
			if len(next) == 0 {
				break
			}
			v = next[rng.Intn(len(next))]
			nodes = append(nodes, v)
		}
		tr, err := trajectory.New(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		walks = append(walks, tr)
	}
	walks[1] = walks[0]
	empty := func(ins *Instance) *Instance {
		out := &Instance{NodeCluster: ins.NodeCluster, nodeCenterDr: ins.nodeCenterDr}
		out.Clusters = make([]Cluster, len(ins.Clusters))
		return out
	}
	for p, ins := range idx.Instances {
		got, want := empty(ins), empty(ins)
		for i, tr := range walks {
			if i == 1 {
				got.reg.epoch = math.MaxUint32
			}
			registerTrajectory(got, trajectory.ID(i), tr)
			refRegisterTrajectory(want, trajectory.ID(i), tr)
		}
		for tid := range want.CC {
			if !slices.Equal(got.CC[tid], want.CC[tid]) {
				t.Fatalf("rung %d trajectory %d: CC %v, reference %v", p, tid, got.CC[tid], want.CC[tid])
			}
		}
		for c := range want.Clusters {
			g, w := got.Clusters[c].TL, want.Clusters[c].TL
			if !slices.EqualFunc(g, w, func(a, b TrajEntry) bool {
				return a.Traj == b.Traj && math.Float64bits(a.Dr) == math.Float64bits(b.Dr)
			}) {
				t.Fatalf("rung %d cluster %d: TL %v, reference %v", p, c, g, w)
			}
		}
	}
}
