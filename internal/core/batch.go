package core

import (
	"fmt"

	"netclus/internal/trajectory"
)

// Batch trajectory updates. §6: "While multiple updates can be applied one
// after another, batch processing is more efficient." The batch entry points
// validate the whole batch up front (all-or-nothing), then apply per
// index instance in one pass, amortizing bookkeeping that the single-item
// paths repeat per update. (The site batch, AddSites, is updates.go's one
// add body.)

// AddTrajectories ingests a batch of trajectories atomically: either every
// trajectory is valid and all are added (ids returned in order), or none
// is and an error identifies the first offender.
func (idx *Index) AddTrajectories(trs []*trajectory.Trajectory) ([]trajectory.ID, error) {
	for i, tr := range trs {
		if tr == nil {
			return nil, fmt.Errorf("core: AddTrajectories: nil trajectory at %d", i)
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("core: AddTrajectories: trajectory %d: %w", i, err)
		}
		for _, v := range tr.Nodes {
			if v < 0 || int(v) >= idx.inst.G.NumNodes() {
				return nil, fmt.Errorf("core: AddTrajectories: trajectory %d references node %d outside graph", i, v)
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
	idx.invalidateCovers()
	return ids, nil
}

// DeleteTrajectories removes a batch, validating every id first.
func (idx *Index) DeleteTrajectories(ids []trajectory.ID) error {
	seen := make(map[trajectory.ID]bool, len(ids))
	for _, tid := range ids {
		if int(tid) < 0 || int(tid) >= len(idx.alive) {
			return fmt.Errorf("core: DeleteTrajectories: id %d out of range", tid)
		}
		if !idx.alive[tid] {
			return fmt.Errorf("core: DeleteTrajectories: id %d already deleted", tid)
		}
		if seen[tid] {
			return fmt.Errorf("core: DeleteTrajectories: id %d listed twice", tid)
		}
		seen[tid] = true
	}
	for _, tid := range ids {
		idx.alive[tid] = false
	}
	// One pass per instance: drop all dead entries of each touched cluster
	// at once instead of per-trajectory scans.
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
	idx.invalidateCovers()
	return nil
}
