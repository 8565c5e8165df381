package shard

import (
	"sort"

	"netclus/internal/core"
	"netclus/internal/roadnet"
)

// Cluster ownership: every shard clusters the full road network, so each
// cluster has up to N candidate representatives (one per shard that holds
// a site in it). The shard whose candidate has minimal (dr, node) owns the
// cluster — the exact tie-break of the single-shard representative choice,
// so the union of owned representatives IS the single-shard representative
// set. Both gather tiers (shard.Sharded in process, internal/router across
// processes) reduce their members' representative rows through
// ReduceOwnership; nothing else decides who owns what.

// Winner is one cluster's globally best representative: the shard holding
// it and the representative node.
type Winner struct {
	Cluster core.ClusterID
	Shard   int32
	Node    roadnet.NodeID
}

// Ownership maps one ladder instance's clusters to their owning shards.
// Winners is ascending by cluster, so position i is exactly the dense
// representative index i of a single-shard query on the same instance.
type Ownership struct {
	Winners []Winner
	// Masks lists, per shard, the clusters it owns (ascending) and MasksGI
	// the position of each in Winners — the mask and mask→global map a
	// shard's query session opens with.
	Masks   [][]core.ClusterID
	MasksGI [][]int32
}

// closerRep is the ownership tie-break: a beats b for their cluster when
// its (dr, node) is smaller.
func closerRep(a, b core.RepInfo) bool {
	return a.Dr < b.Dr || (a.Dr == b.Dr && a.Node < b.Node)
}

// ReduceOwnership derives cluster ownership from per-shard representative
// rows (rows[j] lists shard j's representatives of one ladder instance).
// The reduction runs over dense per-cluster slices (cluster ids are dense
// int32s), and emitting in cluster order makes Winners sorted by
// construction.
func ReduceOwnership(rows [][]core.RepInfo) *Ownership {
	n := 0
	for _, ris := range rows {
		for _, ri := range ris {
			if int(ri.Cluster) >= n {
				n = int(ri.Cluster) + 1
			}
		}
	}
	best := make([]core.RepInfo, n)
	owner := make([]int32, n)
	for c := range owner {
		owner[c] = -1
	}
	for j, ris := range rows {
		for _, ri := range ris {
			if c := ri.Cluster; owner[c] < 0 || closerRep(ri, best[c]) {
				owner[c], best[c] = int32(j), ri
			}
		}
	}
	o := &Ownership{Masks: make([][]core.ClusterID, len(rows)), MasksGI: make([][]int32, len(rows))}
	for c, j := range owner {
		if j >= 0 {
			o.Winners = append(o.Winners, Winner{Cluster: core.ClusterID(c), Shard: j, Node: best[c].Node})
		}
	}
	o.reindex()
	return o
}

// reindex rebuilds the per-shard masks from Winners.
func (o *Ownership) reindex() {
	for j := range o.Masks {
		o.Masks[j], o.MasksGI[j] = o.Masks[j][:0], o.MasksGI[j][:0]
	}
	for gi, w := range o.Winners {
		o.Masks[w.Shard] = append(o.Masks[w.Shard], w.Cluster)
		o.MasksGI[w.Shard] = append(o.MasksGI[w.Shard], int32(gi))
	}
}

// setWinner records cluster ci's re-reduced winner — shard < 0 when no
// shard fields a representative for it any more — splicing Winners in
// place. The caller excludes in-flight queries (Sharded's write lock).
func (o *Ownership) setWinner(ci core.ClusterID, shard int32, node roadnet.NodeID) {
	pos := sort.Search(len(o.Winners), func(i int) bool { return o.Winners[i].Cluster >= ci })
	had := pos < len(o.Winners) && o.Winners[pos].Cluster == ci
	nw := Winner{Cluster: ci, Shard: shard, Node: node}
	switch {
	case shard >= 0 && !had:
		o.Winners = append(o.Winners, Winner{})
		copy(o.Winners[pos+1:], o.Winners[pos:])
		o.Winners[pos] = nw
	case shard >= 0:
		old := o.Winners[pos]
		o.Winners[pos] = nw
		if old.Shard == shard {
			return // same owner, same position: the masks stand
		}
	case had:
		o.Winners = append(o.Winners[:pos], o.Winners[pos+1:]...)
	default:
		return
	}
	o.reindex()
}
