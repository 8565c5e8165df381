package core

import (
	"fmt"
	"math"

	"netclus/internal/roadnet"
	"netclus/internal/trajectory"
)

// Dynamic updates (§6). The road network itself is immutable ("we assume
// that the underlying road network does not change"); sites and
// trajectories can be added and removed, and every index instance absorbs
// the change incrementally.

// AddSite registers node v as a new candidate site. Per §6 the node already
// belongs to a cluster in every instance (S ⊆ V); the update marks it and
// possibly improves the cluster representative. It returns an error when v
// is invalid or already a site.
func (idx *Index) AddSite(v roadnet.NodeID) error {
	return idx.addSites("AddSite", []roadnet.NodeID{v})
}

// AddSites registers a batch of nodes as candidate sites atomically: the
// whole batch is validated before any node is applied (§6: "batch
// processing is more efficient").
func (idx *Index) AddSites(nodes []roadnet.NodeID) error {
	return idx.addSites("AddSites", nodes)
}

// addSites is the one site-add body; op names the entry point in errors.
func (idx *Index) addSites(op string, nodes []roadnet.NodeID) error {
	dup := make(map[roadnet.NodeID]bool, len(nodes))
	for _, v := range nodes {
		if v < 0 || int(v) >= idx.inst.G.NumNodes() {
			return fmt.Errorf("core: %s: node %d outside graph", op, v)
		}
		if idx.isSite[v] {
			return fmt.Errorf("core: %s: node %d is already a site", op, v)
		}
		if dup[v] {
			return fmt.Errorf("core: %s: node %d listed twice", op, v)
		}
		dup[v] = true
	}
	for _, v := range nodes {
		idx.isSite[v] = true
		idx.siteID[v] = int32(len(idx.inst.Sites))
		idx.inst.Sites = append(idx.inst.Sites, v)
	}
	for _, ins := range idx.Instances {
		for _, v := range nodes {
			ci := ins.NodeCluster[v]
			if ci == InvalidCluster {
				continue
			}
			if maybeTakeRep(&ins.Clusters[ci], v, ins.nodeCenterDr[v]) {
				ins.repGen++
			}
		}
	}
	return nil
}

// maybeTakeRep installs v as cluster representative when it beats the
// current one under the canonical (distance, node id) order — the same
// order chooseRepresentative selects by. Breaking exact-distance ties by
// node id (rather than keeping the incumbent) makes the representative a
// pure function of the current site set, independent of update history,
// which the sharded engine's cross-shard ownership reduction relies on:
// a stateless reduce over per-shard representatives can only reproduce the
// single-shard representative if both are the same canonical argmin.
//
// It reports whether RepDr changed, which is what memoized covers depend
// on: a tie won on node id swaps the node an answer reports (resolved at
// assembly time) but not one float of Eq. 9.
func maybeTakeRep(cl *Cluster, v roadnet.NodeID, d float64) bool {
	closer := d < cl.RepDr
	if closer || (d == cl.RepDr && v < cl.Rep) {
		cl.Rep = v
		cl.RepDr = d
	}
	return closer
}

// DeleteSite untags node v as a candidate site. If v was a cluster
// representative, the next-closest site in the cluster takes over (§4.2);
// clusters left without sites simply stop fielding a representative.
//
// The site list is maintained by swap-remove: the last site moves into the
// deleted slot and only its dense id is patched, so the removal is O(1)
// in the site count instead of the former O(|S|) splice-plus-renumber.
// Site order therefore is not insertion order after a deletion; nothing
// outside build-time τ estimation ever relied on it, and the siteID table
// stays the single source of truth for the Sites index of every node.
func (idx *Index) DeleteSite(v roadnet.NodeID) error {
	if v < 0 || int(v) >= idx.inst.G.NumNodes() || !idx.isSite[v] {
		return fmt.Errorf("core: DeleteSite: node %d is not a site", v)
	}
	slot := idx.siteID[v]
	last := len(idx.inst.Sites) - 1
	if moved := idx.inst.Sites[last]; moved != v {
		idx.inst.Sites[slot] = moved
		idx.siteID[moved] = slot
	}
	idx.inst.Sites = idx.inst.Sites[:last]
	idx.isSite[v] = false
	idx.siteID[v] = -1
	for _, ins := range idx.Instances {
		ci := ins.NodeCluster[v]
		if ci == InvalidCluster {
			continue
		}
		if cl := &ins.Clusters[ci]; cl.Rep == v {
			was := cl.RepDr
			idx.chooseRepresentative(ins, ci)
			if cl.RepDr != was {
				ins.repGen++
			}
		}
	}
	return nil
}

// AddTrajectory ingests a new trajectory: it joins the store and the TL /
// CC structures of every instance (§6). The returned id addresses the
// trajectory in later deletions.
func (idx *Index) AddTrajectory(tr *trajectory.Trajectory) (trajectory.ID, error) {
	ids, err := idx.addTrajectories("AddTrajectory", []*trajectory.Trajectory{tr})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// AddTrajectories ingests a batch of trajectories atomically (§6: "batch
// processing is more efficient"): either every trajectory is valid and all
// are added (ids returned in order), or none is and an error identifies the
// first offender.
func (idx *Index) AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
	return idx.addTrajectories("AddTrajectories", trs)
}

// addTrajectories is the one trajectory-add body; op names the entry point
// in errors, beside the offending position.
func (idx *Index) addTrajectories(op string, trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
	for i, tr := range trs {
		if tr == nil {
			return nil, fmt.Errorf("core: %s: trajectory %d: nil trajectory", op, i)
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("core: %s: trajectory %d: %w", op, i, err)
		}
		for _, v := range tr.Nodes {
			if v < 0 || int(v) >= idx.inst.G.NumNodes() {
				return nil, fmt.Errorf("core: %s: trajectory %d: node %d outside graph", op, i, v)
			}
		}
	}
	ids := make([]trajectory.ID, len(trs))
	for i, tr := range trs {
		ids[i] = idx.trajs.Add(tr)
		idx.alive = append(idx.alive, true)
	}
	for _, ins := range idx.Instances {
		for i, tr := range trs {
			registerTrajectory(ins, ids[i], tr)
		}
	}
	return ids, nil
}

// DeleteTrajectory removes trajectory tid from every instance using the
// inverse map CC (§6) and marks it dead for query-time filtering.
func (idx *Index) DeleteTrajectory(tid trajectory.ID) error {
	return idx.deleteTrajectories("DeleteTrajectory", []trajectory.ID{tid})
}

// DeleteTrajectories removes a batch atomically, validating every id first.
func (idx *Index) DeleteTrajectories(ids []trajectory.ID) error {
	return idx.deleteTrajectories("DeleteTrajectories", ids)
}

// deleteTrajectories is the one trajectory-delete body; op names the entry
// point in errors.
func (idx *Index) deleteTrajectories(op string, ids []trajectory.ID) error {
	seen := make(map[trajectory.ID]bool, len(ids))
	for _, tid := range ids {
		if int(tid) < 0 || int(tid) >= len(idx.alive) {
			return fmt.Errorf("core: %s: id %d out of range", op, tid)
		}
		if !idx.alive[tid] {
			return fmt.Errorf("core: %s: id %d already deleted", op, tid)
		}
		if seen[tid] {
			return fmt.Errorf("core: %s: id %d listed twice", op, tid)
		}
		seen[tid] = true
	}
	for _, tid := range ids {
		idx.alive[tid] = false
	}
	idx.trajDels++
	// One pass per instance: drop all dead entries of each touched cluster
	// at once, in place, so the surviving TL entries stay ascending by
	// trajectory id and TL keeps listing only live trajectories — a cached
	// cover's patch (extendCover) takes a TL's entries past the cover's
	// horizon as its last n, counting n from CC.
	for _, ins := range idx.Instances {
		touched := map[ClusterID]bool{}
		for _, tid := range ids {
			if int(tid) < len(ins.CC) {
				for _, ci := range ins.CC[tid] {
					touched[ci] = true
				}
				ins.CC[tid] = nil
			}
		}
		for ci := range touched {
			tl := ins.Clusters[ci].TL
			kept := tl[:0]
			for _, te := range tl {
				if !seen[te.Traj] {
					kept = append(kept, te)
				}
			}
			ins.Clusters[ci].TL = kept
		}
	}
	return nil
}

// validateInstance checks structural invariants of an instance; used by
// tests and available for debugging after batches of updates.
func (idx *Index) validateInstance(p int) error {
	ins := idx.Instances[p]
	// Every node clustered exactly once, within 2R of its center.
	seen := make([]bool, idx.inst.G.NumNodes())
	for ci := range ins.Clusters {
		cl := &ins.Clusters[ci]
		for i, v := range cl.Members {
			if seen[v] {
				return fmt.Errorf("node %d in two clusters", v)
			}
			seen[v] = true
			if ins.NodeCluster[v] != ClusterID(ci) {
				return fmt.Errorf("node %d cluster map mismatch", v)
			}
			if cl.MemberDr[i] > 2*ins.Radius+1e-9 {
				return fmt.Errorf("node %d at %v exceeds 2R=%v", v, cl.MemberDr[i], 2*ins.Radius)
			}
		}
		if cl.Rep != roadnet.InvalidNode {
			if !idx.isSite[cl.Rep] {
				return fmt.Errorf("representative %d is not a site", cl.Rep)
			}
			if math.IsInf(cl.RepDr, 1) {
				return fmt.Errorf("representative %d with infinite distance", cl.Rep)
			}
		}
		// The representative must be canonical: the (distance, node id)
		// argmin over the cluster's sites, never a history-dependent
		// leftover. The sharded ownership reduction depends on this.
		want := roadnet.InvalidNode
		wantDr := math.Inf(1)
		for i, v := range cl.Members {
			if idx.isSite[v] && (cl.MemberDr[i] < wantDr || (cl.MemberDr[i] == wantDr && v < want)) {
				want = v
				wantDr = cl.MemberDr[i]
			}
		}
		if cl.Rep != want {
			return fmt.Errorf("cluster %d representative %d is not the canonical argmin %d", ci, cl.Rep, want)
		}
		// TL is strictly ascending by trajectory id (unique entries) and
		// lists only live trajectories: the cover fill relies on both.
		for i, te := range cl.TL {
			if i > 0 && te.Traj <= cl.TL[i-1].Traj {
				return fmt.Errorf("cluster %d TL is not strictly ascending at trajectory %d", ci, te.Traj)
			}
			if !idx.alive[te.Traj] {
				return fmt.Errorf("cluster %d lists deleted trajectory %d", ci, te.Traj)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("node %d unclustered", v)
		}
	}
	return nil
}
