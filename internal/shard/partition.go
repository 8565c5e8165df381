// Package shard partitions the candidate-site set over N engine shards and
// answers queries with a scatter-gather protocol that is *bit-exact*
// against the single-shard engine. Each shard is a Member (member.go); the
// one routing core, Sharded (shard.go), runs over N members through the
// four-call Conn interface — ownership reduce, masked cover fetch, the
// answer (Answer, answer.go), update routing. Over in-process members it is
// the benchmark ladder's shard rung and the shard oracles' subject; a
// sharded deployment is one process per member behind internal/router,
// which runs the same core over HTTP conns (covers in the binary layout of
// codec.go). One process serves one index.
//
// The decomposition exploits a structural fact of the index: GDSP
// clustering, trajectory lists, and neighbor lists depend only on the road
// network, the radius ladder, and the trajectory set — never on the site
// set. Sites only pick each cluster's representative. So every shard builds
// the same clustering over the same (replicated) trajectories, with only
// its own sites registered; for each cluster, the shard whose local
// representative is globally closest (min dr, then min node id — the exact
// tie-break of core.chooseRepresentative) "owns" the cluster, and the union
// of owned representatives across shards IS the single-shard representative
// set, entry for entry. Each shard fills Eq. 9 covers only for its owned
// clusters (a masked fill, memoized per shard), and Answer runs the
// paper's Algorithm 1 greedy over the shard covers as the parts of one
// cover (tops.IncGreedyParts): marginals stay per part, each iteration
// reduces the parts' argmax candidates under the paper's (marginal, weight,
// index) tie-break, and the winner's utility update reaches every part's
// covering sites. Every floating point operation matches tops.IncGreedy's
// plain path op for op, which is what the shard-differential oracle
// (oracle_test.go) enforces.
//
// §6 updates route by ownership: a site mutation goes to the one shard Of
// maps its node to (and re-derives cluster ownership), while
// trajectory mutations — which touch every shard's trajectory lists —
// broadcast. No site update empties a cover cache: each shard's memoized
// masked cover is validated against its current ownership mask and
// representatives on lookup (core.coverFor), so a cluster changing hands is
// a one-row insert on the gaining shard and a one-row drop on the losing
// one.
package shard

import "netclus/internal/roadnet"

// PartitionRule names the one site partition, Of, in /v1/shard/meta (a
// member reporting any other rule is refused) and in topsserve's -cache key.
const PartitionRule = "hash"

// Of returns the shard of an n-shard topology (n >= 1) that owns node v as
// a candidate site: FNV-1a over the four little-endian bytes of the id,
// mod n. It is total — any v, adversarial ids included — and needs nothing
// but the id, so every member and the routing core evaluate it locally.
func Of(v roadnet.NodeID, n int) int {
	x := uint64(uint32(v))
	const offset64, prime64 = 14695981039346656037, 1099511628211
	s := uint64(offset64)
	for i := 0; i < 4; i++ {
		s ^= (x >> (8 * i)) & 0xff
		s *= prime64
	}
	return int(s % uint64(n))
}
