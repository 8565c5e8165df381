package router

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"netclus/internal/core"
	"netclus/internal/server"
	"netclus/internal/shard"
	"netclus/internal/tops"
)

// capturingEngine records the preference the serving tier's decoder
// lowered a /v1/query body to, instead of answering it.
type capturingEngine struct {
	server.Engine
	got tops.Preference
}

func (e *capturingEngine) Query(_ context.Context, opts core.QueryOptions) (*core.QueryResult, error) {
	e.got = opts.Pref
	return nil, errors.New("captured")
}

// TestPreferenceLoweringAgreesAcrossTiers pins the one name → function
// table (tops.PreferenceByName) from each of its wire entry points: a
// /v1/query body decoded by topsserve, the same body decoded by the router
// (server.DecodeQuery, the one decoder), and the WirePref the routing core
// then ships to a member in its cover request must all name the same
// function — same cover-cache fingerprint — as the constructor the name
// stands for. A tier that lowered "exp" with another default λ, say, would
// answer from a different cover than its peers.
func TestPreferenceLoweringAgreesAcrossTiers(t *testing.T) {
	inst, _ := buildFixture(t, 1601)
	m, err := shard.BuildMember(inst, 0, shard.Options{Shards: 1, Build: fixtureBuild})
	if err != nil {
		t.Fatal(err)
	}
	eng := &capturingEngine{Engine: m}
	srv, err := server.New(eng, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const tau = 1.3
	for _, tc := range []struct {
		body string
		want tops.Preference
	}{
		{`{"k":1,"tau":1.3}`, tops.Binary(tau)},
		{`{"k":1,"tau":1.3,"pref":"binary"}`, tops.Binary(tau)},
		{`{"k":1,"tau":1.3,"pref":"linear"}`, tops.Linear(tau)},
		{`{"k":1,"tau":1.3,"pref":"convex"}`, tops.ConvexQuadratic(tau)},
		{`{"k":1,"tau":1.3,"pref":"exp"}`, tops.ExpDecay(tau, 1)},
		{`{"k":1,"tau":1.3,"pref":"exp","lambda":0.7}`, tops.ExpDecay(tau, 0.7)},
	} {
		want := core.PrefFingerprint(tc.want)

		eng.got = tops.Preference{}
		postJSON(t, ts.Client(), ts.URL+"/v1/query", tc.body)
		if got := core.PrefFingerprint(eng.got); got != want {
			t.Errorf("%s: topsserve lowered to %q (fingerprint %x), want %q (%x)", tc.body, eng.got.Name, got, tc.want.Name, want)
		}

		q, err := server.DecodeQuery([]byte(tc.body), server.Limits{})
		if err != nil {
			t.Fatalf("%s: router decode: %v", tc.body, err)
		}
		if got := core.PrefFingerprint(q.Opts.Pref); got != want {
			t.Errorf("%s: router lowered to %q (fingerprint %x), want %q (%x)", tc.body, q.Opts.Pref.Name, got, tc.want.Name, want)
		}
		pref, err := q.Pref.Preference()
		if err != nil {
			t.Fatalf("%s: member lowering of %+v: %v", tc.body, q.Pref, err)
		}
		if got := core.PrefFingerprint(pref); got != want {
			t.Errorf("%s: router → member lowered to %q (fingerprint %x), want %q (%x)", tc.body, pref.Name, got, tc.want.Name, want)
		}
		// The routing core ships the decoded options' preference, lowered
		// back to wire form (shard.WirePrefOf): it too must re-lower to the
		// same function.
		wp, err := shard.WirePrefOf(q.Opts.Pref)
		if err != nil {
			t.Fatalf("%s: core lowering of %q: %v", tc.body, q.Opts.Pref.Name, err)
		}
		if back, err := wp.Preference(); err != nil || core.PrefFingerprint(back) != want {
			t.Errorf("%s: core ships %+v, which re-lowers to %q (%v), want %q", tc.body, wp, back.Name, err, tc.want.Name)
		}
	}

	// And they refuse the same bodies.
	for _, body := range []string{
		`{"k":1,"tau":1.3,"pref":"nope"}`,
		`{"k":1,"tau":1.3,"pref":"linear","lambda":2}`,
		`{"k":1,"tau":1.3,"lambda":2}`,
		`{"k":1,"tau":1.3,"pref":"exp","lambda":-1}`,
	} {
		eng.got = tops.Preference{}
		if status, resp := postJSON(t, ts.Client(), ts.URL+"/v1/query", body); status != http.StatusBadRequest || eng.got.Name != "" {
			t.Errorf("%s: topsserve answered %d %s (engine reached with %q), want a decoder 400", body, status, resp, eng.got.Name)
		}
		if _, err := server.DecodeQuery([]byte(body), server.Limits{}); err == nil {
			t.Errorf("%s: router decode accepted", body)
		}
	}
}
