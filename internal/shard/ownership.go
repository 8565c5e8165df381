package shard

import (
	"netclus/internal/core"
	"netclus/internal/roadnet"
)

// Cluster ownership: every shard clusters the full road network, so each
// cluster has up to N candidate representatives (one per shard that holds
// a site in it). The shard whose candidate has minimal (dr, node) owns the
// cluster — the exact tie-break of the single-shard representative choice,
// so the union of owned representatives IS the single-shard representative
// set. The routing core (Sharded) reduces its members' representative rows
// through ReduceOwnership, whether they sit in this process or behind a
// router; nothing else decides who owns what.

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
	// Size everything exactly: the core re-reduces after every site update.
	owned := make([]int, len(rows))
	total := 0
	for _, j := range owner {
		if j >= 0 {
			owned[j]++
			total++
		}
	}
	o := &Ownership{Winners: make([]Winner, 0, total), Masks: make([][]core.ClusterID, len(rows)), MasksGI: make([][]int32, len(rows))}
	masks, gis := make([]core.ClusterID, total), make([]int32, total)
	off := 0
	for j, n := range owned {
		o.Masks[j], o.MasksGI[j] = masks[off:off:off+n], gis[off:off:off+n]
		off += n
	}
	for c, j := range owner {
		if j >= 0 {
			o.Masks[j] = append(o.Masks[j], core.ClusterID(c))
			o.MasksGI[j] = append(o.MasksGI[j], int32(len(o.Winners)))
			o.Winners = append(o.Winners, Winner{Cluster: core.ClusterID(c), Shard: j, Node: best[c].Node})
		}
	}
	return o
}
