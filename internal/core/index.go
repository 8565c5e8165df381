package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
)

// ClusterID identifies a cluster within one index instance.
type ClusterID int32

// InvalidCluster marks nodes without a cluster (never the case after build).
const InvalidCluster ClusterID = -1

// TrajEntry is one element of a cluster's trajectory list T L(g): a
// trajectory passing through the cluster with its round-trip distance to
// the cluster center (§4.3, item 3).
type TrajEntry struct {
	Traj trajectory.ID
	Dr   float64
}

// NeighborEntry is one element of a cluster's neighbor list CL(g): a
// cluster whose center is within round-trip distance 4·R·(1+γ), with that
// distance (§4.3, item 4).
type NeighborEntry struct {
	Cluster ClusterID
	Dr      float64
}

// Cluster carries the per-cluster information of §4.3.
type Cluster struct {
	// Center is the cluster center c_i chosen by Greedy-GDSP.
	Center roadnet.NodeID
	// Rep is the cluster representative r_i: the candidate site closest to
	// the center (§4.2), or InvalidNode when the cluster hosts no site.
	Rep roadnet.NodeID
	// RepDr is dr(c_i, r_i); 0 when Rep is the center, +Inf when no rep.
	RepDr float64
	// Members lists the nodes of the cluster, ascending by node id.
	Members []roadnet.NodeID
	// MemberDr[i] is dr(Members[i], c_i) <= 2R.
	MemberDr []float64
	// TL is the trajectory list, strictly ascending by trajectory id.
	TL []TrajEntry
	// CL is the neighbor list, ascending by distance.
	CL []NeighborEntry
}

// Instance is one resolution level I_p of the NETCLUS index.
type Instance struct {
	// Radius is the cluster radius R_p.
	Radius float64
	// Clusters holds every cluster of this instance.
	Clusters []Cluster
	// NodeCluster maps each node to its cluster.
	NodeCluster []ClusterID
	// nodeCenterDr[v] = dr(v, center of NodeCluster[v]).
	nodeCenterDr []float64
	// CC maps each trajectory to the (deduplicated) clusters it passes
	// through — the inverse of TL (§6 uses it for deletions).
	CC [][]ClusterID
	// BuildTime records how long this instance took to construct, without
	// the build's shared |Λ(v)| sweep (Index.SweepTime).
	BuildTime time.Duration
	// repGen advances whenever a site mutation changes some cluster's
	// representative presence or RepDr — the only site-set inputs of Eq. 9.
	// Memoized covers and plans are validated against it (cover.go).
	repGen uint64
	// reg is registerTrajectory's scratch.
	reg registerScratch
}

// Options configures index construction.
type Options struct {
	// Gamma is the resolution parameter γ ∈ (0,1]: radii grow by (1+γ)
	// between instances and a cluster's neighborhood reaches 4R(1+γ).
	// The paper fixes 0.75 after the Table 7 sweep.
	Gamma float64
	// TauMin / TauMax bound the query coverage thresholds the index must
	// serve. Zero values are derived from the data per §4.4: the minimum
	// and maximum round-trip distance between candidate sites (estimated
	// by sampling; exact pairwise computation is quadratic).
	TauMin, TauMax float64
	// Workers bounds build parallelism: the ladder-wide |Λ(v)| sweep runs
	// on all of them, then the rungs share them (across rungs, and inside
	// each for the neighbor-list searches and FM sketches). Zero means
	// runtime.NumCPU(); 1 builds fully sequentially. The built index is
	// identical — and its snapshot byte-identical — for every worker count.
	Workers int
	// GDSP configures the clustering; Radius is overwritten per instance.
	GDSP GDSPOptions
}

func (o Options) withDefaults() Options {
	if o.Gamma == 0 {
		o.Gamma = 0.75
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Index is the multi-resolution NETCLUS index (§4.4). It owns a mutable
// view of the site set and the trajectory store so that dynamic updates
// (§6) do not mutate the caller's instance.
type Index struct {
	inst      *tops.Instance
	opts      Options
	Instances []*Instance

	// isSite[v] marks candidate-site nodes; siteID[v] is the dense site id
	// of node v (or -1). Updates maintain both.
	isSite []bool
	siteID []int32
	// trajs aliases inst.Trajs extended by dynamic additions; alive masks
	// deletions.
	trajs *trajectory.Store
	alive []bool
	// trajDels counts trajectory-delete ops. With trajs.Len(), which every
	// add grows, it is the trajectory state a memoized cover was filled at.
	trajDels uint64

	// sweepTime is the wall time of Build's |Λ(v)| sweep (SweepTime).
	sweepTime time.Duration

	// walLSN is the write-ahead-log sequence number stamped in the snapshot
	// this index was loaded from (0 for a fresh build): where log replay
	// resumes. The serving layer counts on from it in its own sink.
	walLSN uint64

	// Cover caching (cover.go): per-instance CoverPlans plus memoized
	// CoverSets keyed by (instance, preference fingerprint, full | masked).
	// coverMu guards the plan table and the map; mutation-vs-query
	// serialization is the caller's job (internal/engine wraps the index in
	// an RWMutex for that).
	coverMu          sync.Mutex
	coverPlans       []*CoverPlan
	coverCache       map[coverKey]*coverEntry
	coverHits        atomic.Uint64
	coverMisses      atomic.Uint64
	coverRevalidated atomic.Uint64
	coverRowsSwept   atomic.Uint64
}

// Build constructs the full NETCLUS index offline phase: the instance
// ladder I_0 … I_{t−1} with radii R_p = (1+γ)^p · τmin/4.
func Build(inst *tops.Instance, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if opts.Gamma <= 0 || opts.Gamma > 1 {
		return nil, fmt.Errorf("core: γ = %v outside (0,1]", opts.Gamma)
	}
	idx := &Index{
		inst:   inst,
		opts:   opts,
		isSite: make([]bool, inst.G.NumNodes()),
		siteID: make([]int32, inst.G.NumNodes()),
		trajs:  inst.Trajs,
		alive:  make([]bool, inst.M()),
	}
	for v := range idx.siteID {
		idx.siteID[v] = -1
	}
	for i, s := range inst.Sites {
		idx.isSite[s] = true
		idx.siteID[s] = int32(i)
	}
	for i := range idx.alive {
		idx.alive[i] = true
	}

	if opts.TauMin <= 0 || opts.TauMax <= 0 {
		tmin, tmax := estimateTauRange(inst)
		if opts.TauMin <= 0 {
			opts.TauMin = tmin
		}
		if opts.TauMax <= 0 {
			opts.TauMax = tmax
		}
	}
	if opts.TauMin >= opts.TauMax {
		return nil, fmt.Errorf("core: τmin %v >= τmax %v", opts.TauMin, opts.TauMax)
	}
	idx.opts = opts

	t := ladderRungs(opts.Gamma, opts.TauMin, opts.TauMax)
	// Shares the exact formula and ceiling with the snapshot decoder, so
	// save/load stay symmetric by construction — every index Build can
	// produce, ReadIndex will accept. A >maxLadderRungs ladder only arises
	// from a near-zero γ with a wide τ range: a misconfiguration, not a
	// workload.
	// t < 1 covers the float underflow at γ ≲ 1.1e-16, where 1+γ == 1
	// makes ladderRungs divide by log(1) and the int conversion of +Inf
	// go negative — without the guard, make() below would panic.
	if t < 1 || t > maxLadderRungs {
		return nil, fmt.Errorf("core: γ=%v over τ∈[%v,%v) yields a %d-rung ladder (max %d); increase γ or narrow the τ range", opts.Gamma, opts.TauMin, opts.TauMax, t, maxLadderRungs)
	}
	radii := make([]float64, t)
	for p := range radii {
		radii[p] = opts.TauMin / 4 * math.Pow(1+opts.Gamma, float64(p))
	}
	// Exact Greedy-GDSP needs |Λ_p(v)| for every rung and node: one sweep
	// at the top radius yields them all, on every worker, before any rung
	// starts — per-rung sweeps would leave the top rung's, the largest,
	// running on its rung's share of the workers after the rest finish.
	counts := make([][]float64, t) // FM mode leaves them nil
	if !opts.GDSP.UseFM {
		start := time.Now()
		counts = ladderDomCounts(inst.G, radii, opts.Workers)
		idx.sweepTime = time.Since(start)
	}
	// Ladder rungs are independent (each reads the shared immutable inputs
	// and writes only its own Instance), so they build concurrently — and
	// the Workers budget is split globally, not granted per rung: at most
	// rungPar rungs run at once, each fanning its parallel phases (the
	// neighbor-list searches, FM mode's sketch sweep) over ~Workers/rungPar
	// inner workers, so peak goroutines and O(|V|) Dijkstra scratches stay
	// ~Workers rather than Workers². rungPar scales with the budget
	// (Workers/4, floored at 2) because each rung also has sequential
	// phases (greedy selection, trajectory registration) that only
	// rung-level overlap can hide — on a big machine a whole ladder still
	// runs at once, on 4 cores two rungs pipeline. Rung p depends only on
	// its radius, and the slice assembly below is by position, so the
	// merge order — and therefore the built index — is deterministic for
	// every worker count.
	rungPar := opts.Workers / 4
	if rungPar < 2 {
		rungPar = 2
	}
	if rungPar > t {
		rungPar = t
	}
	if rungPar > opts.Workers {
		rungPar = opts.Workers
	}
	innerWorkers := (opts.Workers + rungPar - 1) / rungPar
	idx.Instances = make([]*Instance, t)
	errs := make([]error, t)
	var wg sync.WaitGroup
	sem := make(chan struct{}, rungPar)
	for p := 0; p < t; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ins, err := idx.buildInstance(radii[p], counts[p], innerWorkers)
			if err != nil {
				errs[p] = fmt.Errorf("core: instance %d (R=%v): %w", p, radii[p], err)
				return
			}
			idx.Instances[p] = ins
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// maxLadderRungs caps the resolution ladder. Build rejects configurations
// beyond it and the snapshot decoder rejects counts beyond it, from the
// same formula, so no writable index is unloadable.
const maxLadderRungs = 4096

// ladderRungs is the §4.4 ladder length t = ⌊log_{1+γ}(τmax/τmin)⌋ + 1.
// Both Build and the snapshot decoder derive the expected instance count
// from it.
func ladderRungs(gamma, tauMin, tauMax float64) int {
	return int(math.Floor(math.Log(tauMax/tauMin)/math.Log(1+gamma))) + 1
}

// EstimateTauRange exposes the §4.4 τ-range derivation Build applies when
// Options leaves TauMin/TauMax zero. The sharded engine needs the estimate
// up front: every shard must be built over the SAME ladder, so the range is
// derived once from the full site set and passed to each shard explicitly —
// which also makes a sharded build ladder-identical to a single-shard build
// of the same dataset.
func EstimateTauRange(inst *tops.Instance) (float64, float64) {
	return estimateTauRange(inst)
}

// estimateTauRange derives [τmin, τmax) per §4.4 as the min and max
// round-trip distance between candidate sites, estimated from a sample of
// sites (the exact values need quadratic work; the sampled bounds only
// shift which ladder rung serves which τ, not correctness, because queries
// clamp to the ladder).
func estimateTauRange(inst *tops.Instance) (float64, float64) {
	g := inst.G
	scratch := roadnet.NewScratch(g)
	sampleEvery := len(inst.Sites)/64 + 1
	tmin := math.Inf(1)
	tmax := 0.0
	var ball []roadnet.NodeDr
	for i := 0; i < len(inst.Sites); i += sampleEvery {
		src := inst.Sites[i]
		// Nearest other site: grow the ball until it holds one. The ball
		// only grows with the radius, so the first one holding another site
		// holds the sample's nearest, and no larger radius can lower tmin.
		for radius, found := 0.25, false; !found && radius < 1e6; radius *= 2 {
			ball = scratch.RoundTrips(g, src, radius, ball)
			for _, u := range ball {
				if u.Node != src && instIsSite(inst, u.Node) {
					found = true
					if u.Dr < tmin {
						tmin = u.Dr
					}
				}
			}
		}
		// Farthest site round trip (full searches, sampled sparsely).
		if i%(sampleEvery*4) == 0 {
			rts := roadnet.RoundTripsFrom(g, src)
			for _, s := range inst.Sites {
				if rt := rts[s]; !math.IsInf(rt, 1) && rt > tmax {
					tmax = rt
				}
			}
		}
	}
	if math.IsInf(tmin, 1) || tmin <= 0 {
		tmin = 0.1
	}
	if tmax <= tmin {
		tmax = tmin * 64
	}
	return tmin, tmax
}

func instIsSite(inst *tops.Instance, v roadnet.NodeID) bool {
	// Sites are sorted ascending (generator contract); binary search.
	lo, hi := 0, len(inst.Sites)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case inst.Sites[mid] == v:
			return true
		case inst.Sites[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// buildInstance clusters the network at the given radius and derives all
// §4.3 cluster information, fanning its parallel phases over the given
// share of the build's worker budget. counts are exact mode's |Λ(v)| at
// radius from the ladder-wide sweep (nil in FM mode).
func (idx *Index) buildInstance(radius float64, counts []float64, workers int) (*Instance, error) {
	start := time.Now()
	g := idx.inst.G
	gopts := idx.opts.GDSP
	gopts.Radius = radius
	gopts.Workers = workers
	var raw []rawCluster
	var err error
	if counts != nil && radius > 0 {
		raw, err = gdspExact(g, gopts, counts)
	} else { // FM mode, or a bad radius for greedyGDSP to reject
		raw, err = greedyGDSP(g, gopts)
	}
	if err != nil {
		return nil, err
	}
	ins := &Instance{
		Radius:       radius,
		Clusters:     make([]Cluster, len(raw)),
		NodeCluster:  make([]ClusterID, g.NumNodes()),
		nodeCenterDr: make([]float64, g.NumNodes()),
		CC:           make([][]ClusterID, idx.trajs.Len()),
	}
	for v := range ins.NodeCluster {
		ins.NodeCluster[v] = InvalidCluster
	}
	for ci, rc := range raw {
		cl := Cluster{Center: rc.center, Members: rc.members, MemberDr: rc.dist}
		for i, v := range rc.members {
			ins.NodeCluster[v] = ClusterID(ci)
			ins.nodeCenterDr[v] = rc.dist[i]
		}
		ins.Clusters[ci] = cl
	}
	// Representatives: candidate site closest to the center (§4.2).
	for ci := range ins.Clusters {
		idx.chooseRepresentative(ins, ClusterID(ci))
	}
	// Trajectory lists and cluster sequences.
	idx.trajs.ForEach(func(tid trajectory.ID, tr *trajectory.Trajectory) {
		if !idx.alive[tid] {
			return
		}
		registerTrajectory(ins, tid, tr)
	})
	// Neighbor lists: centers within round-trip 4R(1+γ).
	idx.buildNeighborLists(ins, workers)
	ins.BuildTime = time.Since(start)
	return ins, nil
}

// chooseRepresentative (re)selects the representative of cluster ci as the
// candidate site with minimal round-trip distance to the center.
func (idx *Index) chooseRepresentative(ins *Instance, ci ClusterID) {
	cl := &ins.Clusters[ci]
	cl.Rep = roadnet.InvalidNode
	cl.RepDr = math.Inf(1)
	for i, v := range cl.Members {
		if idx.isSite[v] && cl.MemberDr[i] < cl.RepDr {
			cl.Rep = v
			cl.RepDr = cl.MemberDr[i]
		}
	}
}

// registerTrajectory adds a trajectory to the TL lists of the clusters it
// passes through and records its cluster sequence CC. The trajectory's
// distance to a cluster center is the minimum round-trip distance over its
// nodes inside the cluster.
func registerTrajectory(ins *Instance, tid trajectory.ID, tr *trajectory.Trajectory) {
	r := &ins.reg
	if len(r.stamp) < len(ins.Clusters) {
		r.stamp = make([]uint32, len(ins.Clusters))
		r.best = make([]float64, len(ins.Clusters))
		r.epoch = 0
	}
	if r.epoch++; r.epoch == 0 {
		// Wrapped: a stamp from 2^32 calls ago would read as current.
		clear(r.stamp)
		r.epoch = 1
	}
	// Clusters in first-visit order (CC dedups re-entries), with the
	// minimum distance over each cluster's visited nodes.
	seq := r.seq[:0]
	for _, v := range tr.Nodes {
		c := ins.NodeCluster[v]
		if r.stamp[c] != r.epoch {
			r.stamp[c] = r.epoch
			r.best[c] = math.Inf(1)
			seq = append(seq, c)
		}
		if d := ins.nodeCenterDr[v]; d < r.best[c] {
			r.best[c] = d
		}
	}
	r.seq = seq
	for int(tid) >= len(ins.CC) {
		ins.CC = append(ins.CC, nil)
	}
	ins.CC[tid] = append([]ClusterID(nil), seq...)
	for _, c := range seq {
		ins.Clusters[c].TL = append(ins.Clusters[c].TL, TrajEntry{Traj: tid, Dr: r.best[c]})
	}
}

// registerScratch is registerTrajectory's working memory, one per Instance
// and sized lazily to its clusters: stamp[c] == epoch marks cluster c as
// visited by the trajectory being registered, best[c] its distance so far.
// The build registers into each instance from one goroutine, and updates
// run under the engine's write lock, so it is never shared.
type registerScratch struct {
	stamp []uint32
	best  []float64
	epoch uint32
	seq   []ClusterID
}

// buildNeighborLists computes CL(g) for every cluster: clusters whose
// centers are within round-trip distance 4·R·(1+γ) (§4.3; the bound is what
// makes T̂C computable from neighbors only, §5.1). Each cluster's bounded
// search is independent and writes only its own CL, so the clusters shard
// across the build workers; the (distance, id) sort keeps every list
// deterministic regardless of search order or worker interleaving.
func (idx *Index) buildNeighborLists(ins *Instance, workers int) {
	g := idx.inst.G
	reach := 4 * ins.Radius * (1 + idx.opts.Gamma)
	parallelSweep(g, len(ins.Clusters), workers, func(scratch *roadnet.DijkstraScratch, lo, hi int) {
		var rts []roadnet.NodeDr
		for ci := lo; ci < hi; ci++ {
			rts = scratch.RoundTrips(g, ins.Clusters[ci].Center, reach, rts)
			var nbrs []NeighborEntry
			for _, u := range rts {
				// Every center is a member of its own cluster, so a node
				// is a center exactly when it is its own cluster's.
				if cj := ins.NodeCluster[u.Node]; cj != ClusterID(ci) && ins.Clusters[cj].Center == u.Node {
					nbrs = append(nbrs, NeighborEntry{Cluster: cj, Dr: u.Dr})
				}
			}
			sort.Slice(nbrs, func(a, b int) bool {
				if nbrs[a].Dr != nbrs[b].Dr {
					return nbrs[a].Dr < nbrs[b].Dr
				}
				return nbrs[a].Cluster < nbrs[b].Cluster
			})
			ins.Clusters[ci].CL = nbrs
		}
	})
}

// InstanceFor returns the ladder position p serving coverage threshold τ
// (§5: p = ⌊log_{1+γ}(τ/τmin)⌋, clamped to the ladder).
func (idx *Index) InstanceFor(tau float64) int {
	return InstanceForTau(idx.opts.TauMin, idx.opts.Gamma, len(idx.Instances), tau)
}

// InstanceForTau is the pure ladder-position rule behind InstanceFor,
// exported so a remote tier (the shard router) holding only the ladder
// parameters (τmin, γ, rung count) selects the same instance — the same
// float ops, so the choice is bit-identical to the index's own.
func InstanceForTau(tauMin, gamma float64, rungs int, tau float64) int {
	if tau <= tauMin {
		return 0
	}
	p := int(math.Floor(math.Log(tau/tauMin) / math.Log(1+gamma)))
	if p < 0 {
		p = 0
	}
	if p >= rungs {
		p = rungs - 1
	}
	return p
}

// TauRange returns the [τmin, τmax) range the ladder was built for.
func (idx *Index) TauRange() (float64, float64) { return idx.opts.TauMin, idx.opts.TauMax }

// Gamma returns the resolution parameter γ.
func (idx *Index) Gamma() float64 { return idx.opts.Gamma }

// TopsInstance returns the underlying problem instance.
func (idx *Index) TopsInstance() *tops.Instance { return idx.inst }

// WalLSN returns the write-ahead-log sequence number of the snapshot this
// index was loaded from — every logged mutation up to and including it is
// reflected, so replay resumes after it; 0 for a fresh build.
func (idx *Index) WalLSN() uint64 { return idx.walLSN }

// NumAlive returns the number of live (non-deleted) trajectories.
func (idx *Index) NumAlive() int {
	n := 0
	for _, a := range idx.alive {
		if a {
			n++
		}
	}
	return n
}

// MemoryBytes estimates the resident size of all index instances: cluster
// membership, trajectory lists, neighbor lists and the dense node arrays.
// This drives the Table 7 / Table 9 space comparisons.
func (idx *Index) MemoryBytes() int64 {
	var total int64
	for _, ins := range idx.Instances {
		total += int64(len(ins.NodeCluster)) * 4
		total += int64(len(ins.nodeCenterDr)) * 8
		for ci := range ins.Clusters {
			cl := &ins.Clusters[ci]
			total += int64(len(cl.Members))*12 + int64(len(cl.TL))*12 + int64(len(cl.CL))*12
		}
		for _, cc := range ins.CC {
			total += int64(len(cc)) * 4
		}
	}
	return total
}

// Stats summarizes one instance for Table 11-style reporting.
type InstanceStats struct {
	Radius       float64
	NumClusters  int
	AvgMembers   float64 // mean |Λ| (cluster size)
	AvgTL        float64 // mean trajectory-list length
	AvgCL        float64 // mean neighbor count
	BuildSeconds float64 // BuildTime: excludes the shared sweep (Index.SweepTime)
}

// SweepTime is the wall time of the build's shared |Λ(v)| sweep, which no
// instance's BuildTime includes. It is zero for an FM-mode build and for an
// index loaded from a snapshot.
func (idx *Index) SweepTime() time.Duration { return idx.sweepTime }

// Stats computes summary statistics of instance p.
func (idx *Index) Stats(p int) InstanceStats {
	ins := idx.Instances[p]
	st := InstanceStats{
		Radius:       ins.Radius,
		NumClusters:  len(ins.Clusters),
		BuildSeconds: ins.BuildTime.Seconds(),
	}
	var members, tl, cl int
	for ci := range ins.Clusters {
		members += len(ins.Clusters[ci].Members)
		tl += len(ins.Clusters[ci].TL)
		cl += len(ins.Clusters[ci].CL)
	}
	if n := float64(len(ins.Clusters)); n > 0 {
		st.AvgMembers = float64(members) / n
		st.AvgTL = float64(tl) / n
		st.AvgCL = float64(cl) / n
	}
	return st
}
