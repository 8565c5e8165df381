// Package shard partitions the candidate-site set over N engine shards and
// answers queries with a scatter-gather protocol that is *bit-exact*
// against the single-shard engine. Each shard is a Member (member.go); the
// one routing core, Sharded (shard.go), runs over N members through the
// five-call Conn interface — ownership reduce, masked cover fetch, the
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
// §6 updates route by ownership: a site mutation goes to the one shard the
// partitioner maps its node to (and re-derives cluster ownership), while
// trajectory mutations — which touch every shard's trajectory lists —
// broadcast. No site update empties a cover cache: each shard's memoized
// masked cover is validated against its current ownership mask and
// representatives on lookup (core.coverFor), so a cluster changing hands is
// a one-row insert on the gaining shard and a one-row drop on the losing
// one.
package shard

import (
	"fmt"
	"math"

	"netclus/internal/roadnet"
)

// Partitioner maps a road-network node to the shard that owns it as a
// candidate site. Implementations must be total (any int value in, a shard
// index in [0, Shards()) out — adversarial ids must not panic) and
// deterministic, because every member and the router re-derive the
// partition from scratch.
type Partitioner interface {
	// Name identifies the partitioner in /v1/shard/meta.
	Name() string
	// Shards returns the number of shards the partitioner maps onto.
	Shards() int
	// Shard returns the owning shard of node v, for ANY v.
	Shard(v roadnet.NodeID) int
}

// Partitioner names accepted by NewPartitioner (and topsserve -partitioner).
const (
	HashPartitioner = "hash"
	GridPartitioner = "grid"
)

// NewPartitioner constructs a partitioner by name. The graph is
// needed by the spatial partitioner for node coordinates; the hash
// partitioner ignores it.
func NewPartitioner(name string, n int, g *roadnet.Graph) (Partitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", n)
	}
	switch name {
	case "", HashPartitioner:
		return &hashPart{n: n}, nil
	case GridPartitioner:
		return newGridPart(n, g), nil
	default:
		return nil, fmt.Errorf("shard: unknown partitioner %q (want %q or %q)", name, HashPartitioner, GridPartitioner)
	}
}

// hashPart shards by an FNV-style mix of the node id: uniform, stateless,
// and stable across processes.
type hashPart struct{ n int }

func (h *hashPart) Name() string { return HashPartitioner }
func (h *hashPart) Shards() int  { return h.n }

func (h *hashPart) Shard(v roadnet.NodeID) int {
	x := uint64(uint32(v))
	// fnv-1a over the four little-endian bytes of the id.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	s := uint64(offset64)
	for i := 0; i < 4; i++ {
		s ^= (x >> (8 * i)) & 0xff
		s *= prime64
	}
	return int(s % uint64(h.n))
}

// gridPart shards spatially: the graph's bounding box is cut into a
// near-square grid of n cells (row-major), and a node goes to the cell its
// coordinate falls in. Sites that are road-network neighbors tend to share
// a shard, which concentrates each shard's cluster ownership spatially.
// Nodes outside the graph (possible only for adversarial update requests,
// which the owning shard will reject anyway) fall back to the hash route so
// the partitioner stays total.
type gridPart struct {
	n          int
	g          *roadnet.Graph
	minX, minY float64
	invW, invH float64 // 1/cell-width, 1/cell-height (0 when degenerate)
	cols, rows int
	fallback   hashPart
}

func newGridPart(n int, g *roadnet.Graph) *gridPart {
	p := &gridPart{n: n, g: g, fallback: hashPart{n: n}}
	p.cols = int(math.Ceil(math.Sqrt(float64(n))))
	p.rows = (n + p.cols - 1) / p.cols
	if g == nil || g.NumNodes() == 0 {
		return p
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for v := 0; v < g.NumNodes(); v++ {
		pt := g.Point(roadnet.NodeID(v))
		minX = math.Min(minX, pt.X)
		minY = math.Min(minY, pt.Y)
		maxX = math.Max(maxX, pt.X)
		maxY = math.Max(maxY, pt.Y)
	}
	p.minX, p.minY = minX, minY
	if w := maxX - minX; w > 0 {
		p.invW = float64(p.cols) / w
	}
	if h := maxY - minY; h > 0 {
		p.invH = float64(p.rows) / h
	}
	return p
}

func (p *gridPart) Name() string { return GridPartitioner }
func (p *gridPart) Shards() int  { return p.n }

func (p *gridPart) Shard(v roadnet.NodeID) int {
	if p.g == nil || v < 0 || int(v) >= p.g.NumNodes() {
		return p.fallback.Shard(v)
	}
	pt := p.g.Point(v)
	col := int((pt.X - p.minX) * p.invW)
	row := int((pt.Y - p.minY) * p.invH)
	if col >= p.cols {
		col = p.cols - 1
	}
	if row >= p.rows {
		row = p.rows - 1
	}
	if col < 0 {
		col = 0
	}
	if row < 0 {
		row = 0
	}
	return (row*p.cols + col) % p.n
}
