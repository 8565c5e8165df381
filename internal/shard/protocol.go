package shard

import (
	"fmt"

	"netclus/internal/core"
	"netclus/internal/roadnet"
	"netclus/internal/tops"
)

// The member surface's wire types. A query ships covers: the routing core
// asks every owning member for its masked cover in one CoverRequest
// (POST /v1/shard/cover across processes), each member answers with the
// cover (in the binary layout of codec.go on the wire), and the core runs
// the one greedy over them (Answer, answer.go). The codec carries every
// float64 as its bits and every row in the member's order, so a routed
// answer is float-op-for-float-op identical to the single-process
// engine's.

// WirePref is a preference in wire form: the serving layer's (name, τ, λ)
// triple, re-lowered to a tops.Preference on the receiving side by the
// function the /v1/query decoder uses.
type WirePref struct {
	Name   string  `json:"name"`
	Tau    float64 `json:"tau"`
	Lambda float64 `json:"lambda,omitempty"`
}

// Preference lowers the wire form.
func (w WirePref) Preference() (tops.Preference, error) {
	return tops.PreferenceByName(w.Name, w.Tau, w.Lambda)
}

// wireNames maps the preference constructors' names to the wire names
// tops.PreferenceByName lowers back to them.
var wireNames = map[string]string{"binary": "binary", "linear": "linear", "convex-quadratic": "convex", "exp-decay": "exp"}

// WirePrefOf is the inverse of Preference for the four wire families:
// re-lowered, it yields the same function (same τ, same λ, same cover-cache
// fingerprint). A preference built any other way has no wire form.
func WirePrefOf(pref tops.Preference) (WirePref, error) {
	name, ok := wireNames[pref.Name]
	if !ok {
		return WirePref{}, fmt.Errorf("shard: preference %q has no wire form", pref.Name)
	}
	return WirePref{Name: name, Tau: pref.Tau, Lambda: pref.Lambda}, nil
}

// CoverRequest asks a member for its masked cover of one query
// (POST /v1/shard/cover): the ladder instance serving the query's τ, the
// preference in wire form, and the clusters this shard owns (ascending).
type CoverRequest struct {
	P    int              `json:"p"`
	Pref WirePref         `json:"pref"`
	Mask []core.ClusterID `json:"mask"`
}

// MemberMeta is GET /v1/shard/meta: everything the router needs to adopt
// a shard process — topology parameters it must verify agree across
// members, the ladder parameters that make instance selection local
// (core.InstanceForTau), and the site lists that seed the router's global
// dense-id mirror. Partitioner is always PartitionRule; it stays on the
// wire so a member or router of another rule is refused, not trusted.
type MemberMeta struct {
	Shards      int    `json:"shards"`
	Index       int    `json:"index"`
	Partitioner string `json:"partitioner"`
	Ladder
	// Sites is this shard's live site list in its own dense order.
	Sites []roadnet.NodeID `json:"sites"`
	// InitialSites is the full global site order the member was built
	// from, when it still knows it (a member recovered from a checkpoint
	// does not). All members of one build report the same list; the router
	// seeds its dense-id mirror from it so SiteIDs match the single-process
	// engine's.
	InitialSites []roadnet.NodeID `json:"initial_sites,omitempty"`
	LSN          uint64           `json:"lsn"`
	Epoch        uint64           `json:"epoch"`
}
