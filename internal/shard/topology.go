package shard

import (
	"fmt"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
)

// What every gather tier keeps about the topology as a whole, whichever
// side of a process boundary its shards sit on: the global dense site ids
// and the one ladder all shards must share.

// SiteMirror is the global dense site-id mirror: it replicates the
// single-shard index's bookkeeping (append on add, swap-remove on delete)
// over the full site set, so the SiteIDs a gather reports match the
// single-shard engine's.
type SiteMirror struct {
	sites []roadnet.NodeID
	id    map[roadnet.NodeID]tops.SiteID
}

// NewSiteMirror seeds a mirror with sites (copied) in dense-id order.
func NewSiteMirror(sites []roadnet.NodeID) *SiteMirror {
	m := &SiteMirror{id: make(map[roadnet.NodeID]tops.SiteID, len(sites))}
	for _, v := range sites {
		m.Add(v)
	}
	return m
}

// Sites returns the live site list in dense-id order; callers must not
// modify it.
func (m *SiteMirror) Sites() []roadnet.NodeID { return m.sites }

// ID returns v's dense id, or tops.InvalidSiteID when v is not a site.
func (m *SiteMirror) ID(v roadnet.NodeID) tops.SiteID {
	if id, ok := m.id[v]; ok {
		return id
	}
	return tops.InvalidSiteID
}

// Add appends v under the next dense id (a no-op when already a site).
func (m *SiteMirror) Add(v roadnet.NodeID) {
	if _, ok := m.id[v]; ok {
		return
	}
	m.id[v] = tops.SiteID(len(m.sites))
	m.sites = append(m.sites, v)
}

// Delete swap-removes v, moving the last dense id into the vacated slot
// (a no-op when not a site).
func (m *SiteMirror) Delete(v roadnet.NodeID) {
	slot, ok := m.id[v]
	if !ok {
		return
	}
	last := len(m.sites) - 1
	moved := m.sites[last]
	m.sites[slot] = moved
	m.id[moved] = slot
	m.sites = m.sites[:last]
	delete(m.id, v)
}

// Ladder is the index-ladder parameter set every shard of a topology must
// share: instance selection (core.InstanceForTau) is evaluated against it
// once per query, for all shards.
type Ladder struct {
	TauMin float64 `json:"tau_min"`
	TauMax float64 `json:"tau_max"`
	Gamma  float64 `json:"gamma"`
	Rungs  int     `json:"rungs"`
}

func ladderOf(idx *core.Index) Ladder {
	tmin, tmax := idx.TauRange()
	return Ladder{TauMin: tmin, TauMax: tmax, Gamma: idx.Gamma(), Rungs: len(idx.Instances)}
}

func (l Ladder) String() string {
	return fmt.Sprintf("γ=%v τ=[%v,%v) rungs=%d", l.Gamma, l.TauMin, l.TauMax, l.Rungs)
}

// deriveLadderRange fills a zero TauMin/TauMax from the FULL site set,
// exactly as core.Build would, so every shard — and a single-process engine
// over the same dataset — shares one ladder.
func deriveLadderRange(inst *tops.Instance, b *core.Options) error {
	if b.TauMin <= 0 || b.TauMax <= 0 {
		tmin, tmax := core.EstimateTauRange(inst)
		if b.TauMin <= 0 {
			b.TauMin = tmin
		}
		if b.TauMax <= 0 {
			b.TauMax = tmax
		}
	}
	if b.TauMin >= b.TauMax {
		return fmt.Errorf("shard: τmin %v >= τmax %v", b.TauMin, b.TauMax)
	}
	return nil
}
