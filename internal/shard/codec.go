package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"netclus/internal/core"
	"netclus/internal/tops"
)

// The cover body of POST /v1/shard/cover: one member's masked cover in one
// length-prefixed, little-endian message.
//
//	magic  [4]byte  "NCCV"
//	n      uint32   representatives (TC rows)
//	m      uint32   trajectory universe size (CoverSets.M)
//	pairs  uint32   TC entries over all rows
//	reps   n × int32        the cluster each row stands for, strictly ascending
//	off    (n+1) × uint32   row offsets: off[0] = 0, non-decreasing, off[n] = pairs
//	trajs  pairs × int32    row s is trajs[off[s]:off[s+1]], strictly ascending ids in [0, m)
//	scores pairs × uint64   the float64 bits of each entry's ψ score
//
// Weights and the SC side are not shipped: the reader recomputes both through
// tops.CoverSets' own Finalize, which sums each row left to right as the
// member's fill did, so the decoded cover carries the same bits.

var coverMagic = [4]byte{'N', 'C', 'C', 'V'}

const coverHeader = 16

// maxCoverM bounds the trajectory universe a cover body may claim: the reader
// allocates O(m) for the SC side, and m is a number, not a length the body
// pays for. 2^24 is two orders of magnitude past the largest preset.
const maxCoverM = 1 << 24

// AppendCover appends the cover body of cs (whose rows stand for reps) to
// dst.
func AppendCover(dst []byte, cs *tops.CoverSets, reps []core.ClusterID) []byte {
	n := len(reps)
	pairs := cs.Pairs()
	le := binary.LittleEndian
	dst = append(dst, coverMagic[:]...)
	dst = le.AppendUint32(dst, uint32(n))
	dst = le.AppendUint32(dst, uint32(cs.M))
	dst = le.AppendUint32(dst, uint32(pairs))
	for _, c := range reps {
		dst = le.AppendUint32(dst, uint32(c))
	}
	off := 0
	dst = le.AppendUint32(dst, 0)
	for s := range n {
		off += cs.TCLen(int32(s))
		dst = le.AppendUint32(dst, uint32(off))
	}
	for s := range n {
		trajs, _ := cs.TC(int32(s))
		for _, t := range trajs {
			dst = le.AppendUint32(dst, uint32(t))
		}
	}
	for s := range n {
		_, scores := cs.TC(int32(s))
		for _, sc := range scores {
			dst = le.AppendUint64(dst, math.Float64bits(sc))
		}
	}
	return dst
}

var errCoverBody = errors.New("shard: malformed cover body")

// ReadCover decodes a cover body into a finalized CoverSets and the clusters
// its rows stand for. Every count, offset and id is checked against the
// body before anything is allocated or indexed by it; malformed input is an
// error, never a panic.
func ReadCover(data []byte) (*tops.CoverSets, []core.ClusterID, error) {
	le := binary.LittleEndian
	if len(data) < coverHeader || [4]byte(data[:4]) != coverMagic {
		return nil, nil, fmt.Errorf("%w: no NCCV header", errCoverBody)
	}
	n, m, pairs := int64(le.Uint32(data[4:])), int64(le.Uint32(data[8:])), int64(le.Uint32(data[12:]))
	if m > maxCoverM {
		return nil, nil, fmt.Errorf("%w: %d trajectories exceed the limit %d", errCoverBody, m, maxCoverM)
	}
	if want := coverHeader + 4*n + 4*(n+1) + 12*pairs; int64(len(data)) != want {
		return nil, nil, fmt.Errorf("%w: %d bytes, the counts (n=%d, pairs=%d) need %d", errCoverBody, len(data), n, pairs, want)
	}
	body := data[coverHeader:]
	reps := make([]core.ClusterID, n)
	for i := range reps {
		reps[i] = core.ClusterID(le.Uint32(body[4*i:]))
		if reps[i] < 0 || (i > 0 && reps[i] <= reps[i-1]) {
			return nil, nil, fmt.Errorf("%w: representative clusters not strictly ascending non-negative ids", errCoverBody)
		}
	}
	offs := body[4*n:]
	trajBytes := offs[4*(n+1):]
	scoreBytes := trajBytes[4*pairs:]
	trajs := make([]int32, pairs)
	scores := make([]float64, pairs)
	cs := tops.NewCoverSets(int(n), int(m))
	lo := int64(0)
	if le.Uint32(offs) != 0 {
		return nil, nil, fmt.Errorf("%w: row offsets do not start at 0", errCoverBody)
	}
	for s := int64(0); s < n; s++ {
		hi := int64(le.Uint32(offs[4*(s+1):]))
		if hi < lo || hi > pairs {
			return nil, nil, fmt.Errorf("%w: row %d spans [%d, %d) of %d entries", errCoverBody, s, lo, hi, pairs)
		}
		for i := lo; i < hi; i++ {
			t := int32(le.Uint32(trajBytes[4*i:]))
			if int64(t) < 0 || int64(t) >= m || (i > lo && t <= trajs[i-1]) {
				return nil, nil, fmt.Errorf("%w: row %d lists trajectory %d out of order or outside [0, %d)", errCoverBody, s, t, m)
			}
			sc := math.Float64frombits(le.Uint64(scoreBytes[8*i:]))
			if math.IsNaN(sc) || math.IsInf(sc, 0) {
				return nil, nil, fmt.Errorf("%w: row %d scores trajectory %d as %v", errCoverBody, s, t, sc)
			}
			trajs[i], scores[i] = t, sc
		}
		cs.SetTCArrays(int32(s), trajs[lo:hi], scores[lo:hi])
		lo = hi
	}
	if lo != pairs {
		return nil, nil, fmt.Errorf("%w: rows end at entry %d of %d", errCoverBody, lo, pairs)
	}
	cs.Finalize()
	return cs, reps, nil
}
