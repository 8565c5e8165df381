package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"netclus/internal/core"
	"netclus/internal/engine"
	"netclus/internal/gen"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
	"netclus/internal/trajectory"
	"netclus/internal/wal"
)

// The cover-revalidation differential: the licence for core's cover cache
// to keep memoized covers across §6 mutations — revalidate or re-sweep
// moved rows after site ops, append the new ids' entries and drop the
// deleted ones after trajectory ops — instead of dropping them. After EVERY
// mutation of a §6 stream, every cover the cache returns must be byte-equal
// to a fresh fill, and every answer equal to a twin that never caches — for
// the single engine and for the masked covers of a sharded one.

// revalDataset is the immutable input of one differential run. The grid has
// no jitter, so distinct nodes at exactly equal round-trip distance from a
// cluster center exist — the RepDr ties the stream must hit.
type revalDataset struct {
	city   *gen.City
	store  *trajectory.Store
	sites  []roadnet.NodeID
	extras []*trajectory.Trajectory
}

// revalBuild's ladder puts singleton clusters on the two finest rungs (a
// site flip there is a row drop / row insert) and multi-site clusters with
// ties on the three coarser ones.
var revalBuild = core.Options{Gamma: 0.75, TauMin: 0.8, TauMax: 12.8}

func newRevalDataset(t testing.TB, nodes, trajs, sites int, seed int64) *revalDataset {
	t.Helper()
	city, err := gen.GenerateCity(gen.CityConfig{Topology: gen.GridMesh, Nodes: nodes, SpanKm: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	store, err := gen.GenerateTrajectories(city, gen.TrajConfig{Count: trajs, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := gen.SampleSites(city.Graph, gen.SiteConfig{Count: sites, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	return &revalDataset{city: city, store: store, sites: ss, extras: extraTrajectories(t, city, 16, seed+3)}
}

// instance returns a private copy of the dataset: engines mutate their
// instance's site list and trajectory store in place.
func (d *revalDataset) instance(t testing.TB) *tops.Instance {
	t.Helper()
	inst, err := tops.NewInstance(d.city.Graph, d.store.Clone(), slices.Clone(d.sites))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// revalCache is one cover cache of the subject at one instance: the index
// holding it and, for a shard, the ownership mask its covers are filled for.
type revalCache struct {
	idx    *core.Index
	masked bool
	keep   []core.ClusterID
}

func (c revalCache) cached(p int, pref tops.Preference) (*tops.CoverSets, []core.ClusterID, int, error) {
	if c.masked {
		return c.idx.CoverForMaskedCtx(context.Background(), p, pref, c.keep)
	}
	return c.idx.CoverForCtx(context.Background(), p, pref)
}

func (c revalCache) fresh(p int, pref tops.Preference) (*tops.CoverSets, []core.ClusterID, error) {
	if c.masked {
		return c.idx.RepCoverMaskedCtx(context.Background(), p, pref, c.keep)
	}
	return c.idx.RepCoverCtx(context.Background(), p, pref)
}

// revalSubject is the cached engine under test.
type revalSubject struct {
	apply  func(wal.Mutation) (wal.Applied, error)
	query  func(context.Context, core.QueryOptions) (*core.QueryResult, error)
	stats  func() engine.Stats
	caches func(p int) []revalCache
	// shardOf is the shard a node's site lives on (always 0 on the single
	// engine); owner the shard owning cluster ci at instance p; mask shard
	// j's ownership mask at instance p (nil on the single engine).
	shardOf func(v roadnet.NodeID) int
	owner   func(p int, ci core.ClusterID) int
	mask    func(p, j int) []core.ClusterID
}

func engineSubject(eng *engine.Engine) revalSubject {
	return revalSubject{
		apply:   eng.Apply,
		query:   eng.Query,
		stats:   eng.Stats,
		caches:  func(int) []revalCache { return []revalCache{{idx: eng.Index()}} },
		shardOf: func(roadnet.NodeID) int { return 0 },
		owner:   func(int, core.ClusterID) int { return 0 },
	}
}

// shardedSubject drives the routing core over in-process members: site
// kinds as the wire updates a router forwards, trajectory kinds — ingest
// windows and id batches, which no router forwards — broadcast to the
// members member 0 first, as the core broadcasts a single one. A ψ with no
// wire form (the custom one) is gathered from the members' covers directly,
// as Query gathers a wire one.
func shardedSubject(s *Sharded) revalSubject {
	ms := membersOf(s)
	own := func(p int) *Ownership {
		o, err := s.ownership(context.Background(), p)
		if err != nil {
			panic(err)
		}
		return o
	}
	return revalSubject{
		apply: func(m wal.Mutation) (wal.Applied, error) {
			if m.Kind == wal.KindAddSite || m.Kind == wal.KindDeleteSite {
				ack, err := s.Update(context.Background(), wal.Update{Op: m.Kind.String(), Node: int64(m.Node)})
				return wal.Applied{LSN: ack.LSN}, err
			}
			if m.Kind == wal.KindAddSites {
				// No router forwards a batch either: judge it whole, as the
				// single engine does, then add its sites one by one.
				for i, v := range m.Nodes {
					if v < 0 || int(v) >= ms[0].Graph().NumNodes() || s.sites.ID(v) != tops.InvalidSiteID || slices.Contains(m.Nodes[:i], v) {
						return wal.Applied{}, fmt.Errorf("add_sites: node %d is not a free node of the graph", v)
					}
				}
				for _, v := range m.Nodes {
					if err := s.AddSite(v); err != nil {
						return wal.Applied{}, err
					}
				}
				return wal.Applied{}, nil
			}
			var first wal.Applied
			for j, mem := range ms {
				a, err := mem.Apply(m)
				if err != nil {
					return wal.Applied{}, err
				}
				if j == 0 {
					first = a
				}
			}
			return first, nil
		},
		query: func(ctx context.Context, q core.QueryOptions) (*core.QueryResult, error) {
			if _, err := WirePrefOf(q.Pref); err == nil {
				return s.Query(ctx, q)
			}
			p := core.InstanceForTau(s.ladder.TauMin, s.ladder.Gamma, s.ladder.Rungs, q.Pref.Tau)
			o := own(p)
			covers, err := memberCovers(ctx, s, p, q.Pref, o)
			if err != nil {
				return nil, err
			}
			return Answer(ctx, p, o, covers, s.sites, q)
		},
		stats: func() engine.Stats { return memberStats(s) },
		caches: func(p int) []revalCache {
			o := own(p)
			var out []revalCache
			for j, mem := range ms {
				if len(o.Masks[j]) > 0 {
					out = append(out, revalCache{idx: mem.Index(), masked: true, keep: o.Masks[j]})
				}
			}
			return out
		},
		shardOf: func(v roadnet.NodeID) int { return Of(v, len(ms)) },
		owner: func(p int, ci core.ClusterID) int {
			for _, w := range own(p).Winners {
				if w.Cluster == ci {
					return int(w.Shard)
				}
			}
			return -1
		},
		mask: func(p, j int) []core.ClusterID { return own(p).Masks[j] },
	}
}

// revalHarness drives one subject and its never-cached twin through the
// same mutations and compares them after each.
type revalHarness struct {
	t        *testing.T
	d        *revalDataset
	sub      revalSubject
	twin     *engine.Engine
	twinInst *tops.Instance
	// eager preferences are looked up on every rung after every mutation;
	// lazy only where a scenario says so, so its covers fall generations
	// behind the way a rarely asked ψ does in service.
	eager   []tops.Preference
	lazy    tops.Preference
	applied map[wal.Kind]int

	// read holds the cache slots the harness looked up since the last
	// committed trajectory mutation: the covers the next one must refresh.
	// refreshed is what the last trajectory commit did.
	readMu    sync.Mutex
	read      map[revalSlot]revalRead
	refreshed revalRefresh
}

// revalRead is a slot's last lookup: the preference it was asked for, and
// whether a site mutation committed after it.
type revalRead struct {
	pref  tops.Preference
	moved bool
}

// revalSlot names one cover-cache slot: the index holding it, the rung, the
// preference's fingerprint, and whether it is a masked slot.
type revalSlot struct {
	idx    *core.Index
	p      int
	fp     uint64
	masked bool
}

// revalRefresh is one committed trajectory mutation: the slots read before
// it (clean of them since the last site mutation too), and the covers it
// revalidated and the rows it swept.
type revalRefresh struct {
	read        map[revalSlot]revalRead
	clean       uint64
	revalidated uint64
	swept       uint64
}

// newRevalHarness builds the subject (a single engine for shards == 0) and
// its twin over private copies of d.
func newRevalHarness(t *testing.T, d *revalDataset, shards int) *revalHarness {
	t.Helper()
	h := &revalHarness{t: t, d: d, twinInst: d.instance(t), applied: make(map[wal.Kind]int), read: make(map[revalSlot]revalRead)}
	twinIdx, err := core.Build(h.twinInst, revalBuild)
	if err != nil {
		t.Fatal(err)
	}
	if h.twin, err = engine.New(twinIdx, engine.Options{DisableCoverCache: true}); err != nil {
		t.Fatal(err)
	}
	if shards == 0 {
		idx, err := core.Build(d.instance(t), revalBuild)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(idx, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h.sub = engineSubject(eng)
	} else {
		s, err := Build(d.instance(t), Options{Shards: shards, Build: revalBuild})
		if err != nil {
			t.Fatal(err)
		}
		h.sub = shardedSubject(s)
	}
	// One ψ per family, on three different natural rungs; the custom F goes
	// negative past τ/2, so its covers are the ones with AllPositiveScores
	// false.
	h.eager = []tops.Preference{
		tops.Binary(2.6),
		tops.Linear(4.5),
		{Name: "reval-custom", Tau: 8, F: func(d float64) float64 { return 0.5 - d/8 }},
	}
	h.lazy = tops.ConvexQuadratic(4.5)
	return h
}

func (h *revalHarness) rungs() int { return len(h.twin.Index().Instances) }

func (c revalCache) slot(p int, pref tops.Preference) revalSlot {
	return revalSlot{idx: c.idx, p: p, fp: core.PrefFingerprint(pref), masked: c.masked}
}

// noteRead records that the slots of pref at rung p in caches were looked
// up now.
func (h *revalHarness) noteRead(p int, pref tops.Preference, caches ...revalCache) {
	h.readMu.Lock()
	defer h.readMu.Unlock()
	for _, c := range caches {
		h.read[c.slot(p, pref)] = revalRead{pref: pref}
	}
}

// lookup is c.cached, recorded as a read.
func (h *revalHarness) lookup(c revalCache, p int, pref tops.Preference) (*tops.CoverSets, []core.ClusterID, int, error) {
	h.noteRead(p, pref, c)
	return c.cached(p, pref)
}

// rereadMoved looks up again, in every cache of its rung, each slot whose
// last lookup a site mutation has since left behind: the next trajectory
// commit then only extends what it refreshes.
func (h *revalHarness) rereadMoved() {
	h.t.Helper()
	var moved []revalSlot
	var prefs []tops.Preference
	h.readMu.Lock()
	for slot, r := range h.read {
		if r.moved {
			moved, prefs = append(moved, slot), append(prefs, r.pref)
		}
	}
	h.readMu.Unlock()
	for i, slot := range moved {
		for _, c := range h.sub.caches(slot.p) {
			if _, _, _, err := h.lookup(c, slot.p, prefs[i]); err != nil {
				h.t.Fatal(err)
			}
		}
	}
}

// query is the subject's query, recorded as a read of the slots it looks
// up: on the preference's rung, every cache (a sharded query fetches the
// cover of every member owning a cluster there).
func (h *revalHarness) query(ctx context.Context, q core.QueryOptions) (*core.QueryResult, error) {
	p := h.twin.Index().InstanceFor(q.Pref.Tau)
	h.noteRead(p, q.Pref, h.sub.caches(p)...)
	return h.sub.query(ctx, q)
}

// sameCover asserts byte equality of two finalized covers through the read
// accessors: every per-site TC row and per-trajectory SC row, in order. It
// compares contents, not layouts: a cover extended in place keeps its rows
// where it grew them, with room between, so equal rows no longer mean equal
// tcOff or equal flat arrays.
func sameCover(t testing.TB, label string, got, want *tops.CoverSets) {
	t.Helper()
	if got.M != want.M || got.N() != want.N() {
		t.Fatalf("%s: cover is %d sites x %d trajectories, fresh fill %d x %d", label, got.N(), got.M, want.N(), want.M)
	}
	if got.AllPositiveScores() != want.AllPositiveScores() {
		t.Fatalf("%s: AllPositiveScores %v, fresh fill %v", label, got.AllPositiveScores(), want.AllPositiveScores())
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !slices.EqualFunc(got.Weights, want.Weights, sameBits) {
		t.Fatalf("%s: site weights differ from a fresh fill", label)
	}
	for s := int32(0); int(s) < got.N(); s++ {
		gt, gs := got.TC(s)
		wt, ws := want.TC(s)
		if !slices.Equal(gt, wt) || !slices.EqualFunc(gs, ws, sameBits) {
			t.Fatalf("%s: TC row %d differs from a fresh fill", label, s)
		}
	}
	for tr := int32(0); int(tr) < got.M; tr++ {
		gt, gs := got.SC(tr)
		wt, ws := want.SC(tr)
		if !slices.Equal(gt, wt) || !slices.EqualFunc(gs, ws, sameBits) {
			t.Fatalf("%s: SC row %d differs from a fresh fill", label, tr)
		}
	}
}

// checkCovers compares every cached cover of the given preferences, on the
// given rungs (all when none are named), with a fresh fill. It returns the
// number of rows the lookups swept.
func (h *revalHarness) checkCovers(prefs []tops.Preference, rungs ...int) int {
	h.t.Helper()
	if len(rungs) == 0 {
		for p := 0; p < h.rungs(); p++ {
			rungs = append(rungs, p)
		}
	}
	total := 0
	for _, pref := range prefs {
		for _, p := range rungs {
			for j, c := range h.sub.caches(p) {
				label := fmt.Sprintf("ψ=%s rung %d cache %d", pref.Name, p, j)
				got, gotReps, swept, err := h.lookup(c, p, pref)
				if err != nil {
					h.t.Fatalf("%s: cached cover: %v", label, err)
				}
				want, wantReps, err := c.fresh(p, pref)
				if err != nil {
					h.t.Fatalf("%s: fresh cover: %v", label, err)
				}
				if !slices.Equal(gotReps, wantReps) {
					h.t.Fatalf("%s: cached cover's representatives %v, fresh fill's %v", label, gotReps, wantReps)
				}
				sameCover(h.t, label, got, want)
				total += swept
			}
		}
	}
	return total
}

// checkAnswers compares the subject's answers with the twin's: a small k
// and one large enough to select every representative (so every cluster's
// Rep is resolved and reported), for each preference on its natural rung.
func (h *revalHarness) checkAnswers(prefs []tops.Preference) {
	h.t.Helper()
	ctx := context.Background()
	for _, pref := range prefs {
		for _, k := range []int{3, 1 << 20} {
			q := core.QueryOptions{K: k, Pref: pref}
			want, err := h.twin.Query(ctx, q)
			if err != nil {
				h.t.Fatalf("twin query (k=%d, ψ=%s): %v", k, pref.Name, err)
			}
			got, err := h.query(ctx, q)
			if err != nil {
				h.t.Fatalf("query (k=%d, ψ=%s): %v", k, pref.Name, err)
			}
			sameAnswer(h.t, fmt.Sprintf("k=%d ψ=%s", k, pref.Name), got, want)
		}
	}
}

// check is the after-every-mutation comparison, run with concurrent
// readers racing the cover lookups to be the one that patches.
func (h *revalHarness) check(prefs []tops.Preference) {
	h.t.Helper()
	type served struct {
		q   core.QueryOptions
		res *core.QueryResult
		err error
	}
	const readers, each = 3, 4
	out := make([][]served, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q := core.QueryOptions{K: 1 + (r*each+i)%8, Pref: h.eager[(r+i)%len(h.eager)]}
				res, err := h.query(context.Background(), q)
				out[r] = append(out[r], served{q, res, err})
			}
		}()
	}
	h.checkCovers(prefs)
	wg.Wait()
	for _, rs := range out {
		for _, s := range rs {
			if s.err != nil {
				h.t.Fatalf("concurrent query (k=%d, ψ=%s): %v", s.q.K, s.q.Pref.Name, s.err)
			}
			want, err := h.twin.Query(context.Background(), s.q)
			if err != nil {
				h.t.Fatal(err)
			}
			sameAnswer(h.t, fmt.Sprintf("concurrent k=%d ψ=%s", s.q.K, s.q.Pref.Name), s.res, want)
		}
	}
	h.checkAnswers(prefs)
}

// step applies m to the twin and the subject, which must agree on whether
// it is valid, then runs probe (a scenario's own assertions, made while no
// reader is running) and the full check. It reports whether m applied.
func (h *revalHarness) step(m wal.Mutation, probe func()) bool {
	h.t.Helper()
	_, errTwin := h.twin.Apply(m)
	before := h.sub.stats()
	_, errSub := h.sub.apply(m)
	after := h.sub.stats()
	if (errTwin == nil) != (errSub == nil) {
		h.t.Fatalf("%s diverged: twin %v, subject %v", m.Kind, errTwin, errSub)
	}
	if errTwin != nil {
		return false
	}
	h.applied[m.Kind]++
	h.committed(m.Kind, before, after)
	if probe != nil {
		probe()
	}
	h.check(h.eager)
	return true
}

// committed checks what a committed mutation did to the subject's cover
// caches, from its stats around the commit, and keeps the record of reads.
// No commit is a lookup. A site mutation refreshes nothing. A trajectory
// mutation refreshes each slot read since the last one exactly once: a
// slot read since the last site mutation too is only extended, and
// revalidates; an older one may instead sweep the rows a site mutation
// moved, or drop rows and borrow the rest, which neither sweeps nor
// revalidates.
func (h *revalHarness) committed(k wal.Kind, before, after engine.Stats) {
	h.t.Helper()
	if after.CoverHits != before.CoverHits || after.CoverMisses != before.CoverMisses {
		h.t.Fatalf("%s: the commit ran cover lookups (hits %d -> %d, misses %d -> %d)", k, before.CoverHits, after.CoverHits, before.CoverMisses, after.CoverMisses)
	}
	revalidated := after.CoverRevalidated - before.CoverRevalidated
	swept := after.CoverRowsSwept - before.CoverRowsSwept
	h.readMu.Lock()
	defer h.readMu.Unlock()
	switch k {
	case wal.KindAddTrajectory, wal.KindAddTrajectories, wal.KindDeleteTrajectory, wal.KindDeleteTrajectories:
	default:
		if revalidated != 0 || swept != 0 {
			h.t.Fatalf("%s: the commit revalidated %d covers and swept %d rows, want none", k, revalidated, swept)
		}
		for slot, r := range h.read {
			h.read[slot] = revalRead{pref: r.pref, moved: true}
		}
		return
	}
	n, clean := uint64(len(h.read)), uint64(0)
	for _, r := range h.read {
		if !r.moved {
			clean++
		}
	}
	if revalidated < clean || revalidated > n || (clean == n && swept != 0) {
		h.t.Fatalf("%s: the commit revalidated %d covers and swept %d rows; %d covers were read since the last trajectory commit, %d of them since the last site commit",
			k, revalidated, swept, n, clean)
	}
	h.refreshed = revalRefresh{read: h.read, clean: clean, revalidated: revalidated, swept: swept}
	h.read = make(map[revalSlot]revalRead)
}

func (h *revalHarness) isSite(v roadnet.NodeID) bool {
	_, ok := h.twinInst.SiteIDOf(v)
	return ok
}

func addSite(v roadnet.NodeID) wal.Mutation { return wal.Mutation{Kind: wal.KindAddSite, Node: v} }
func delSite(v roadnet.NodeID) wal.Mutation { return wal.Mutation{Kind: wal.KindDeleteSite, Node: v} }
func delTrajs(ids ...trajectory.ID) wal.Mutation {
	return wal.Mutation{Kind: wal.KindDeleteTrajectories, IDs: ids}
}

// window is an ingest window: n trajectories in one batch, cycling through
// the dataset's extras from position from.
func (h *revalHarness) window(n, from int) wal.Mutation {
	trs := make([]wal.TrajData, n)
	for i := range trs {
		trs[i] = wal.FromTrajectory(h.d.extras[(from+i)%len(h.d.extras)])
	}
	return wal.Mutation{Kind: wal.KindAddTrajectories, Trajs: trs}
}

// eachCluster calls fn for every cluster of every multi-member rung until
// it returns true, and reports whether it did.
func (h *revalHarness) eachCluster(fn func(p int, ci core.ClusterID, cl *core.Cluster) bool) bool {
	for p, ins := range h.twin.Index().Instances {
		for ci := range ins.Clusters {
			if cl := &ins.Clusters[ci]; len(cl.Members) > 1 && fn(p, core.ClusterID(ci), cl) {
				return true
			}
		}
	}
	return false
}

// sitesIn lists cluster cl's current sites.
func (h *revalHarness) sitesIn(cl *core.Cluster) []roadnet.NodeID {
	var out []roadnet.NodeID
	for _, v := range cl.Members {
		if h.isSite(v) {
			out = append(out, v)
		}
	}
	return out
}

// quiet runs lookups and asserts they swept no row; when strict, also that
// none had to revalidate (step 1, not step 2).
func (h *revalHarness) quiet(what string, strict bool, lookups func() int) {
	h.t.Helper()
	before := h.sub.stats()
	swept := lookups()
	after := h.sub.stats()
	if swept != 0 || after.CoverRowsSwept != before.CoverRowsSwept || after.CoverMisses != before.CoverMisses {
		h.t.Fatalf("%s: lookups swept %d rows (cover_rows_swept %d -> %d, cover_misses %d -> %d), want none",
			what, swept, before.CoverRowsSwept, after.CoverRowsSwept, before.CoverMisses, after.CoverMisses)
	}
	if strict && after.CoverRevalidated != before.CoverRevalidated {
		h.t.Fatalf("%s: %d lookups revalidated, want plain hits", what, after.CoverRevalidated-before.CoverRevalidated)
	}
}

// appended asserts the contract of a trajectory op. Its commit patched
// each cover read since the last one exactly once, sweeping no row. The
// next lookup of every cached cover of prefs, on every rung and cache, is
// then a plain hit where the commit patched it (or a lookup since read
// it), and otherwise patches it exactly once, sweeping no row. checkCovers,
// which it runs, finds each cover byte-equal to a fresh fill.
func (h *revalHarness) appended(what string, prefs []tops.Preference) {
	h.t.Helper()
	r := h.refreshed
	if n := uint64(len(r.read)); r.clean != n || r.revalidated != n || r.swept != 0 {
		h.t.Fatalf("%s: the commit patched %d of the %d covers read since the last one (%d since a site commit) and swept %d rows, want each patched once, sweeping none",
			what, r.revalidated, n, r.clean, r.swept)
	}
	stale := uint64(0)
	h.readMu.Lock()
	for _, pref := range prefs {
		for p := 0; p < h.rungs(); p++ {
			for _, c := range h.sub.caches(p) {
				_, patched := r.read[c.slot(p, pref)]
				_, readSince := h.read[c.slot(p, pref)]
				if !patched && !readSince {
					stale++
				}
			}
		}
	}
	h.readMu.Unlock()
	before := h.sub.stats()
	h.quiet(what, stale == 0, func() int { return h.checkCovers(prefs) })
	if got := h.sub.stats().CoverRevalidated - before.CoverRevalidated; got != stale {
		h.t.Fatalf("%s: lookups patched %d cached covers, want exactly the %d no commit or lookup has brought current", what, got, stale)
	}
}

// trajScenarios drives the trajectory-op cases by construction: ingest-sized
// windows, deletes between them (of ids the covers hold, and of ids added
// after the lazy ψ's covers were filled, gone before they are read again),
// a window and a moved representative between two reads of one key, and a
// custom ψ whose covers hold non-positive scores throughout.
func (h *revalHarness) trajScenarios() {
	t := h.t
	t.Helper()
	h.checkCovers([]tops.Preference{h.lazy})
	h.rereadMoved()
	first := trajectory.ID(h.twinInst.M())
	h.step(h.window(64, 0), func() { h.appended("a 64-trace window", h.eager) })

	// Two base ids that some cached cover lists, and two window ids.
	var held []trajectory.ID
	for p := h.rungs() - 1; p >= 0 && len(held) < 2; p-- {
		cs, _, _, err := h.lookup(h.sub.caches(p)[0], p, h.eager[1])
		if err != nil {
			t.Fatal(err)
		}
		for tid := trajectory.ID(0); tid < first && len(held) < 2; tid++ {
			if cs.SCLen(int32(tid)) > 0 && !slices.Contains(held, tid) {
				held = append(held, tid)
			}
		}
	}
	if len(held) < 2 {
		t.Fatal("no cached cover lists two base trajectories")
	}
	h.step(delTrajs(held[0], first+1, held[1], first+63), func() { h.appended("deletes after a window", h.eager) })
	h.step(h.window(64, 5), func() { h.appended("a second 64-trace window", h.eager) })
	h.step(delTrajs(first+64+7), func() { h.appended("a delete of the newest window", h.eager) })
	h.appended("the lazy ψ, two windows and two deletes behind", []tops.Preference{h.lazy})

	custom := h.eager[2]
	if !slices.ContainsFunc(h.sub.caches(h.rungs()-1), func(c revalCache) bool {
		cs, _, _, err := h.lookup(c, h.rungs()-1, custom)
		return err == nil && !cs.AllPositiveScores()
	}) {
		t.Fatalf("ψ=%s: no cover on the coarsest rung has a non-positive score; the custom case is not exercised", custom.Name)
	}

	// A window and a moved representative between two reads of the lazy ψ:
	// its lookups extend every row, then re-sweep the moved ones. The
	// runner-up must sit farther out, so that the row really moves.
	if !h.eachCluster(func(p int, ci core.ClusterID, cl *core.Cluster) bool {
		runnerUp := math.Inf(1)
		for i, v := range cl.Members {
			if v != cl.Rep && h.isSite(v) {
				runnerUp = min(runnerUp, cl.MemberDr[i])
			}
		}
		if math.IsInf(runnerUp, 1) || runnerUp == cl.RepDr {
			return false
		}
		h.checkCovers([]tops.Preference{h.lazy})
		h.step(h.window(64, 9), nil)
		h.step(delSite(cl.Rep), nil)
		if swept := h.checkCovers([]tops.Preference{h.lazy}); swept == 0 {
			t.Fatal("a window plus a moved representative swept no row of the lazy ψ's covers")
		}
		return true
	}) {
		t.Fatal("dataset has no cluster with two sites")
	}
}

// scenarios drives the cases the stream must hit by construction. Each
// fails the test when the dataset does not offer it, so none can silently
// stop being exercised.
func (h *revalHarness) scenarios() {
	t := h.t
	t.Helper()
	hasRep := func(p int, ci core.ClusterID) bool {
		return h.twin.Index().Instances[p].Clusters[ci].Rep != roadnet.InvalidNode
	}

	// A cluster loses its last site (row drop, indices shift down) and
	// regains one at another node (row insert at a new RepDr).
	if !h.eachCluster(func(p int, ci core.ClusterID, cl *core.Cluster) bool {
		sites := h.sitesIn(cl)
		if len(sites) != 1 {
			return false
		}
		other := cl.Members[0]
		if other == sites[0] {
			other = cl.Members[1]
		}
		h.step(delSite(sites[0]), func() {
			if hasRep(p, ci) {
				t.Fatalf("cluster %d of rung %d still fields a representative after losing its last site", ci, p)
			}
		})
		h.step(addSite(other), func() {
			if !hasRep(p, ci) {
				t.Fatalf("cluster %d of rung %d fields no representative after regaining a site", ci, p)
			}
		})
		return true
	}) {
		t.Fatal("dataset has no multi-member cluster with exactly one site")
	}

	// Delete-then-re-add of a representative, with no lookup of the lazy ψ
	// in between: its covers are two generations behind and every row is
	// back where it was, so they revalidate without sweeping.
	if !h.eachCluster(func(p int, ci core.ClusterID, cl *core.Cluster) bool {
		if len(h.sitesIn(cl)) < 2 {
			return false
		}
		h.checkCovers([]tops.Preference{h.lazy})
		rep := cl.Rep
		h.step(delSite(rep), nil)
		h.step(addSite(rep), nil)
		before := h.sub.stats().CoverRevalidated
		h.quiet("lazy ψ after a representative's delete and re-add", false, func() int {
			return h.checkCovers([]tops.Preference{h.lazy})
		})
		if after := h.sub.stats().CoverRevalidated; after == before {
			t.Fatal("delete-then-re-add of a representative revalidated no cover")
		}
		return true
	}) {
		t.Fatal("dataset has no cluster with two sites")
	}

	// An added site ties the incumbent's RepDr with a lower node id: the
	// representative node changes, no row does. The pair shares a shard so
	// that the sharded subject sees a tie too, not an ownership move.
	if !h.eachCluster(func(p int, ci core.ClusterID, cl *core.Cluster) bool {
		for i, u := range cl.Members {
			for j := i + 1; j < len(cl.Members); j++ {
				w := cl.Members[j]
				if cl.MemberDr[i] != cl.MemberDr[j] || cl.MemberDr[i] >= cl.RepDr || h.isSite(u) || h.isSite(w) ||
					h.sub.shardOf(u) != h.sub.shardOf(w) {
					continue
				}
				h.step(addSite(w), nil)
				h.step(addSite(u), func() {
					h.quiet("rung of a tie won on node id", true, func() int { return h.checkCovers(h.eager, p) })
					if rep := h.twin.Index().Instances[p].Clusters[ci].Rep; rep != u {
						t.Fatalf("tie on RepDr: representative is %d, want the lower node id %d", rep, u)
					}
					res, err := h.query(context.Background(), core.QueryOptions{K: 1 << 20, Pref: tops.Binary(h.twin.Index().Instances[p].Radius * 4)})
					if err != nil {
						t.Fatal(err)
					}
					if res.InstanceUsed != p || !slices.Contains(res.Sites, u) || slices.Contains(res.Sites, w) {
						t.Fatalf("answer on rung %d (asked for %d) does not report the new representative %d in place of %d", res.InstanceUsed, p, u, w)
					}
				})
				return true
			}
		}
		return false
	}) {
		t.Fatal("dataset has no pair of tied non-site members closer than their cluster's representative")
	}

	// A non-representative add and delete: nothing Eq. 9 reads moves on that
	// rung. (On a shard the node may still become the local representative
	// of a cluster another shard owns, which revalidates — hence not strict
	// there.)
	if !h.eachCluster(func(p int, ci core.ClusterID, cl *core.Cluster) bool {
		for i, v := range cl.Members {
			if h.isSite(v) || cl.MemberDr[i] <= cl.RepDr {
				continue
			}
			strict := len(h.sub.caches(p)) == 1 && !h.sub.caches(p)[0].masked
			for _, m := range []wal.Mutation{addSite(v), delSite(v)} {
				h.step(m, func() {
					h.quiet(fmt.Sprintf("rung %d after a non-representative %s", p, m.Kind), strict, func() int { return h.checkCovers(h.eager, p) })
				})
			}
			return true
		}
		return false
	}) {
		t.Fatal("dataset has no non-site node farther from its center than the representative")
	}

	// Ownership of a cluster moves between shards and back (a one-row
	// insert on the gaining shard, a one-row drop on the losing one). On
	// the single engine the same two mutations are a plain moved row.
	if !h.eachCluster(func(p int, ci core.ClusterID, cl *core.Cluster) bool {
		if cl.Rep == roadnet.InvalidNode {
			return false
		}
		for i, v := range cl.Members {
			if h.isSite(v) || cl.MemberDr[i] >= cl.RepDr || (h.sub.shardOf(v) == h.sub.shardOf(cl.Rep) && len(h.sub.caches(p)) > 1) {
				continue
			}
			was := h.sub.owner(p, ci)
			h.step(addSite(v), func() {
				if got := h.sub.owner(p, ci); got != h.sub.shardOf(v) {
					t.Fatalf("cluster %d of rung %d is owned by shard %d after shard %d took its representative", ci, p, got, h.sub.shardOf(v))
				}
			})
			h.step(delSite(v), func() {
				if got := h.sub.owner(p, ci); got != was {
					t.Fatalf("cluster %d of rung %d is owned by shard %d, want it back on shard %d", ci, p, got, was)
				}
			})
			return true
		}
		return false
	}) {
		t.Fatal("dataset has no closer non-site node on another shard than a cluster's representative")
	}

	// A shard's mask trades one cluster for another while the shard itself
	// sees no mutation and the lazy ψ no lookup: shard B takes cluster c1
	// from shard A with a closer site, then deletes its own representative
	// of c2, whose runner-up is A's. A's mask is spliced in place to the
	// same length, at an unchanged generation — only a by-value comparison
	// against a private copy of the old mask notices.
	if h.sub.mask == nil {
		return
	}
	if !h.eachCluster(func(p int, c2 core.ClusterID, cl2 *core.Cluster) bool {
		runnerUp := core.RepInfo{Node: roadnet.InvalidNode, Dr: math.Inf(1)}
		for i, v := range cl2.Members {
			if ri := (core.RepInfo{Node: v, Dr: cl2.MemberDr[i]}); v != cl2.Rep && h.isSite(v) && closerRep(ri, runnerUp) {
				runnerUp = ri
			}
		}
		if runnerUp.Node == roadnet.InvalidNode {
			return false
		}
		a, b := h.sub.shardOf(runnerUp.Node), h.sub.shardOf(cl2.Rep)
		if a == b {
			return false
		}
		ins := h.twin.Index().Instances[p]
		for c1 := range ins.Clusters {
			cl1 := &ins.Clusters[c1]
			if core.ClusterID(c1) == c2 || cl1.Rep == roadnet.InvalidNode || h.sub.shardOf(cl1.Rep) != a {
				continue
			}
			for i, v := range cl1.Members {
				if h.isSite(v) || cl1.MemberDr[i] >= cl1.RepDr || h.sub.shardOf(v) != b {
					continue
				}
				h.checkCovers([]tops.Preference{h.lazy})
				was := slices.Clone(h.sub.mask(p, a))
				h.step(addSite(v), nil)
				h.step(delSite(cl2.Rep), nil)
				if now := h.sub.mask(p, a); len(now) != len(was) || slices.Equal(now, was) {
					t.Fatalf("shard %d's mask on rung %d went %v -> %v, want one cluster traded for another", a, p, was, now)
				}
				h.checkCovers([]tops.Preference{h.lazy})
				return true
			}
		}
		return false
	}) {
		t.Fatal("dataset has no pair of clusters two shards can trade")
	}
}

// stream decodes data as a §6 op stream — one op byte, then 16-bit
// little-endian operands — and steps through it. Every kind can come out
// invalid (a node that is already a site, a dead trajectory, a duplicate in
// a batch); subject and twin must then refuse it alike.
func (h *revalHarness) stream(data []byte) {
	h.t.Helper()
	pos := 0
	next := func() int {
		if pos+2 > len(data) {
			pos = len(data)
			return 0
		}
		v := binary.LittleEndian.Uint16(data[pos:])
		pos += 2
		return int(v)
	}
	nodes := h.d.city.Graph.NumNodes()
	node := func() roadnet.NodeID { return roadnet.NodeID(next() % nodes) }
	extra := func() wal.TrajData { return wal.FromTrajectory(h.d.extras[next()%len(h.d.extras)]) }
	tid := func() trajectory.ID { return trajectory.ID(next() % (h.twinInst.M() + 1)) }
	for pos < len(data) {
		op := data[pos]
		pos++
		var m wal.Mutation
		switch wal.Kind(1 + op%7) {
		case wal.KindAddSite:
			m = addSite(node())
		case wal.KindDeleteSite:
			// Keep a pool of sites: an index without any cannot answer.
			if len(h.twinInst.Sites) <= 8 {
				continue
			}
			m = delSite(h.twinInst.Sites[next()%len(h.twinInst.Sites)])
		case wal.KindAddSites:
			m = wal.Mutation{Kind: wal.KindAddSites, Nodes: []roadnet.NodeID{node(), node()}}
		case wal.KindAddTrajectory:
			m = wal.Mutation{Kind: wal.KindAddTrajectory, Traj: extra()}
		case wal.KindDeleteTrajectory:
			m = wal.Mutation{Kind: wal.KindDeleteTrajectory, ID: tid()}
		case wal.KindAddTrajectories:
			// One batch in four is an ingest-sized window.
			if next()%4 == 0 {
				m = h.window(64, next())
			} else {
				m = wal.Mutation{Kind: wal.KindAddTrajectories, Trajs: []wal.TrajData{extra(), extra()}}
			}
		case wal.KindDeleteTrajectories:
			m = wal.Mutation{Kind: wal.KindDeleteTrajectories, IDs: []trajectory.ID{tid(), tid()}}
		}
		h.step(m, nil)
	}
}

// TestCoverRevalidationDifferential: the scripted site and trajectory
// scenarios, then a seeded random stream of all seven mutation kinds (with
// ingest-sized windows), against the single engine and 2- and 4-shard
// engines. Run it under -race: every check races concurrent readers against
// the lookups that patch.
func TestCoverRevalidationDifferential(t *testing.T) {
	d := newRevalDataset(t, 500, 60, 120, 821)
	ops := 60
	if testing.Short() {
		ops = 24
	}
	for _, shards := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			h := newRevalHarness(t, d, shards)
			h.check(append(h.eager, h.lazy))
			h.scenarios()
			h.trajScenarios()

			rng := rand.New(rand.NewSource(823 + int64(shards)))
			data := make([]byte, 5*ops)
			rng.Read(data)
			h.stream(data)
			// The lazy ψ has sat out the whole random stream.
			h.check(append(h.eager, h.lazy))

			for k := wal.KindAddSite; k <= wal.KindDeleteTrajectories; k++ {
				if h.applied[k] == 0 {
					t.Errorf("the stream applied no %s", k)
				}
			}
			st := h.sub.stats()
			t.Logf("%d mutations; cover lookups: %d hits (%d revalidated), %d misses sweeping %d rows",
				st.Updates, st.CoverHits, st.CoverRevalidated, st.CoverMisses, st.CoverRowsSwept)
		})
	}
}

// FuzzCoverRevalidation feeds arbitrary op streams to the same harness, on
// a dataset small enough to rebuild per execution (so a failing input
// reproduces on its own): a single engine and a 2-shard engine, each
// against its twin.
func FuzzCoverRevalidation(f *testing.F) {
	f.Add([]byte{1, 7, 0, 0, 7, 0})                                           // delete a site, add one
	f.Add([]byte{2, 3, 0, 0, 9, 0, 3, 12, 0})                                 // trajectory ops around a site add
	f.Add([]byte{4, 1, 0, 2, 0, 4, 1, 0, 1, 0, 5, 0, 0, 1, 0, 6, 0, 0, 0, 0}) // batches, two with a duplicate
	f.Add([]byte{5, 0, 0, 3, 0, 6, 3, 0, 40, 0, 5, 4, 0, 7, 0, 1, 0, 0})      // window, deletes before and in it, window, site delete
	var d *revalDataset
	f.Fuzz(func(t *testing.T, data []byte) {
		if d == nil {
			d = newRevalDataset(t, 100, 12, 30, 827)
		}
		if len(data) > 64 {
			data = data[:64]
		}
		for _, shards := range []int{0, 2} {
			h := newRevalHarness(t, d, shards)
			h.check(append(h.eager, h.lazy))
			h.stream(data)
			// The lazy ψ has sat out the whole stream.
			h.check(append(h.eager, h.lazy))
		}
	})
}
