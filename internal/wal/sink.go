package wal

import (
	"errors"
	"fmt"
	"sync/atomic"

	"netclus/internal/trajectory"
)

// ErrFenced reports a record or request carrying a fencing token from a
// stale primary term: the epoch it claims is older than one this node has
// already observed.
var ErrFenced = errors.New("wal: fenced (stale epoch)")

// Sink is the engine-side committer inside engine.Engine's serving shell:
// it owns the attached log, the engine's LSN, and the broken latch, and it
// is where the two write disciplines are written, once — Apply
// (live: guard, apply, log, acknowledge) and Replay (recovery and followers:
// in-order, apply, stamp) — around whatever transition function the engine
// hands them. All methods except LSN and Epoch must be called under the
// shell's write lock.
type Sink struct {
	log    *Log
	broken bool
	lsn    atomic.Uint64
	// epoch is the fencing token of the primary term this engine last
	// observed — via BeginEpoch (local promotion/boot), a replayed KindEpoch
	// record, or RestoreEpoch (checkpoint load).
	epoch atomic.Uint64
}

// LSN reports the last committed (or replayed) sequence number; safe
// without the engine lock.
func (s *Sink) LSN() uint64 { return s.lsn.Load() }

// SetLSN stamps the LSN a loaded snapshot reflects.
func (s *Sink) SetLSN(lsn uint64) { s.lsn.Store(lsn) }

// Attach connects the log: it must sit exactly at the engine's LSN — an
// empty log is based there, covering fresh deployments and checkpoints
// restored into compacted-away (or new) log directories.
func (s *Sink) Attach(l *Log) error {
	if l == nil {
		return fmt.Errorf("wal: nil log")
	}
	if s.log != nil {
		return fmt.Errorf("wal: log already attached")
	}
	cur := s.lsn.Load()
	if l.IsEmpty() {
		if err := l.SetBase(cur); err != nil {
			return err
		}
	} else if head := l.HeadLSN(); head != cur {
		return fmt.Errorf("wal: log head LSN %d != engine LSN %d (replay the tail before attaching)", head, cur)
	}
	s.log = l
	return nil
}

// Applied reports what one live Apply committed.
type Applied struct {
	// LSN is the sequence number this mutation's record was assigned; 0 when
	// no log is attached.
	LSN uint64
	// IDs are the trajectory ids an add kind assigned, in input order.
	IDs []trajectory.ID
}

// Apply is the live write discipline: apply-then-log. The engine's
// transition function has accepted the mutation by the time its record is
// appended, so the log contains exactly the mutations it accepted — and
// Replay hands a decoded record to the same function, so replay cannot fail
// on a record the live path logged. The mutation is acknowledged only after
// the append returns (durability at that point follows the log's fsync
// policy). If the append itself fails the error wraps ErrLogFailed and the
// sink refuses every later mutation: the in-memory state is ahead of the
// log, and continuing would widen the divergence until a restart recovers.
func (s *Sink) Apply(m Mutation, apply func(Mutation) ([]trajectory.ID, error)) (Applied, error) {
	if err := s.guard(); err != nil {
		return Applied{}, err
	}
	ids, err := apply(m)
	if err != nil {
		return Applied{}, err
	}
	lsn, err := s.commit(m)
	if err != nil {
		return Applied{}, err
	}
	return Applied{LSN: lsn, IDs: ids}, nil
}

func (s *Sink) guard() error {
	if s.broken {
		return fmt.Errorf("%w: log diverged from applied state; restart to recover", ErrLogFailed)
	}
	return nil
}

// commit appends m's record and advances the LSN. Without an attached log
// it is a no-op returning 0 (the body is never encoded).
func (s *Sink) commit(m Mutation) (uint64, error) {
	if s.log == nil {
		return 0, nil
	}
	lsn, err := s.log.Append(m.Kind, m.Body())
	if err != nil {
		s.broken = true
		return 0, fmt.Errorf("%w: %v", ErrLogFailed, err)
	}
	s.lsn.Store(lsn)
	return lsn, nil
}

// Replay is the replay discipline for the record at lsn, decoded as m:
// records arrive in LSN order, never into a log-attached engine (its records
// originate locally), an epoch record moves the fencing token — never
// backwards: a lower epoch means the stream comes from a deposed primary —
// and anything else goes through apply. Nothing is re-logged.
func (s *Sink) Replay(lsn uint64, m Mutation, apply func(Mutation) ([]trajectory.ID, error)) error {
	if s.log != nil {
		return fmt.Errorf("wal: replay into a log-attached engine (records must come from its own log)")
	}
	if want := s.lsn.Load() + 1; lsn != want {
		return fmt.Errorf("wal: record LSN %d, expected %d", lsn, want)
	}
	var err error
	if m.Kind != KindEpoch {
		_, err = apply(m)
	} else if cur := s.epoch.Load(); m.Epoch < cur {
		err = fmt.Errorf("%w: epoch record %d below current %d", ErrFenced, m.Epoch, cur)
	} else {
		s.epoch.Store(m.Epoch)
	}
	if err != nil {
		return fmt.Errorf("replaying LSN %d (%s): %w", lsn, m.Kind, err)
	}
	s.lsn.Store(lsn)
	return nil
}

// Epoch reports the current fencing token; safe without the engine lock.
func (s *Sink) Epoch() uint64 { return s.epoch.Load() }

// RestoreEpoch stamps the epoch recovered from a checkpoint container
// (load path, before any replay).
func (s *Sink) RestoreEpoch(epoch uint64) { s.epoch.Store(epoch) }

// BeginEpoch opens a new primary term: it logs a KindEpoch record (when a
// log is attached) and advances the fencing token. The epoch must be
// strictly newer than the current one.
func (s *Sink) BeginEpoch(epoch uint64) (uint64, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	if cur := s.epoch.Load(); epoch <= cur {
		return 0, fmt.Errorf("%w: epoch %d not newer than %d", ErrFenced, epoch, cur)
	}
	lsn, err := s.commit(Mutation{Kind: KindEpoch, Epoch: epoch})
	if err != nil {
		return 0, err
	}
	s.epoch.Store(epoch)
	return lsn, nil
}
