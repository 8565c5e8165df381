package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"netclus/internal/roadnet"
	"netclus/internal/trajectory"
)

// Update is the wire form of one POST /v1/update body, the single-item
// kinds only. Every tier speaks it: topsserve decodes and applies it, the
// router routes it, and the shard members behind a router receive it
// unchanged (in process or over HTTP).
type Update struct {
	// Op is one of add_site, delete_site, add_trajectory,
	// delete_trajectory.
	Op string `json:"op"`
	// Node addresses add_site / delete_site.
	Node int64 `json:"node,omitempty"`
	// Nodes is the node sequence of add_trajectory.
	Nodes []int64 `json:"nodes,omitempty"`
	// ID addresses delete_trajectory.
	ID int64 `json:"id,omitempty"`
}

// UpdateAck is the wire form of a successful /v1/update answer.
type UpdateAck struct {
	OK bool `json:"ok"`
	// TrajectoryID reports the id assigned by add_trajectory.
	TrajectoryID *int32 `json:"trajectory_id,omitempty"`
	// LSN is the sequence number of this mutation's own write-ahead-log
	// record (0 when the server has no log).
	LSN uint64 `json:"lsn,omitempty"`
	// Quorum reports that the configured follower quorum durably
	// acknowledged LSN before this response.
	Quorum bool `json:"quorum,omitempty"`
}

// NewUpdateAck acknowledges an applied mutation.
func NewUpdateAck(a Applied) UpdateAck {
	ack := UpdateAck{OK: true, LSN: a.LSN}
	if len(a.IDs) > 0 {
		id := int32(a.IDs[0])
		ack.TrajectoryID = &id
	}
	return ack
}

// DecodeUpdate parses and checks one /v1/update body: exactly one JSON
// value, unknown fields rejected.
func DecodeUpdate(data []byte) (Update, error) {
	var u Update
	if err := StrictUnmarshal(data, &u); err != nil {
		return u, err
	}
	_, err := u.Kind()
	return u, err
}

// StrictUnmarshal decodes exactly one JSON value from data into v,
// rejecting unknown fields and trailing data. Both serving tiers decode
// every JSON request body with it (/v1/update here; query, batch, cover,
// follow and topology bodies), and internal/ingest each NDJSON line.
// encoding/json already rejects NaN/Inf literals (they are not JSON) and
// out-of-range numbers like 1e999; the validators behind it still guard
// the finite-range invariants, so no parser quirk can smuggle a non-finite
// float into the engine.
func StrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// Kind lowers Op and checks the fields it names. Range checks against the
// live graph happen in the engine; here only structural sanity is enforced.
func (u Update) Kind() (Kind, error) {
	if u.Op == "" {
		return 0, fmt.Errorf("missing op")
	}
	k, ok := KindByName(u.Op)
	if !ok || !k.Single() {
		return 0, fmt.Errorf("unknown op %q (want add_site, delete_site, add_trajectory or delete_trajectory)", u.Op)
	}
	switch k {
	case KindAddSite, KindDeleteSite:
		if u.Node < 0 || u.Node > math.MaxInt32 {
			return 0, fmt.Errorf("node %d outside int32 range", u.Node)
		}
		if len(u.Nodes) != 0 || u.ID != 0 {
			return 0, fmt.Errorf("%s takes only the node field", u.Op)
		}
	case KindAddTrajectory:
		if len(u.Nodes) == 0 {
			return 0, fmt.Errorf("add_trajectory needs a non-empty nodes sequence")
		}
		if len(u.Nodes) > 1<<16 {
			return 0, fmt.Errorf("trajectory of %d nodes exceeds limit %d", len(u.Nodes), 1<<16)
		}
		for i, v := range u.Nodes {
			if v < 0 || v > math.MaxInt32 {
				return 0, fmt.Errorf("nodes[%d] = %d outside int32 range", i, v)
			}
		}
		if u.Node != 0 || u.ID != 0 {
			return 0, fmt.Errorf("add_trajectory takes only the nodes field")
		}
	case KindDeleteTrajectory:
		if u.ID < 0 || u.ID > math.MaxInt32 {
			return 0, fmt.Errorf("trajectory id %d outside int32 range", u.ID)
		}
		if u.Node != 0 || len(u.Nodes) != 0 {
			return 0, fmt.Errorf("delete_trajectory takes only the id field")
		}
	}
	return k, nil
}

// Mutation lowers the update to the value an engine applies. An
// add_trajectory's node sequence is priced over g here, outside the engine
// lock (a hop without a direct edge costs a shortest-path search).
func (u Update) Mutation(g *roadnet.Graph) (Mutation, error) {
	k, err := u.Kind()
	if err != nil {
		return Mutation{}, err
	}
	m := Mutation{Kind: k, Node: roadnet.NodeID(u.Node), ID: trajectory.ID(u.ID)}
	if k == KindAddTrajectory {
		nodes := make([]roadnet.NodeID, len(u.Nodes))
		for i, v := range u.Nodes {
			nodes[i] = roadnet.NodeID(v)
		}
		tr, err := trajectory.New(g, nodes)
		if err != nil {
			return m, err
		}
		m.Traj = FromTrajectory(tr)
	}
	return m, nil
}
