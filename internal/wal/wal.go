package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/obs"
)

// On-disk layout. A log directory holds segment files named
// <firstLSN:020d>.wal. Each segment starts with a fixed header
//
//	u32 magic "NCWL" | u32 version | u64 firstLSN
//
// followed by frames
//
//	u32 payloadLen | u32 crc32(payload) | payload = u64 lsn | u8 kind | body
//
// Frames are written with a single Write call, so a crash (or a concurrent
// reader) observes a prefix of whole frames plus at most one torn frame at
// the tail. Open repairs the active segment by truncating at the first
// invalid frame; torn, truncated, or bit-flipped tails therefore lose at
// most the records that were never fully on disk — never earlier ones, and
// never by panicking (FuzzWALReplay holds the log to that contract).

const (
	segMagic   uint32 = 0x4c57434e // "NCWL" little-endian
	segVersion uint32 = 1
	segHdrSize        = 16
	frameHdr          = 8
	// maxFrameBytes bounds one record frame; anything larger is corruption.
	maxFrameBytes = 1 << 26
	segSuffix     = ".wal"
)

// ErrCompacted reports a read below the log's first retained LSN: the
// requested records were deleted by compaction and the reader must restart
// from a checkpoint.
var ErrCompacted = errors.New("wal: requested LSN compacted away")

// ErrLogFailed wraps append failures surfaced through the engine: the
// in-memory state advanced but the log did not, so the engine refuses
// further mutations until restarted.
var ErrLogFailed = errors.New("wal: log append failed")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every record: an acknowledged update is
	// durable, at per-record fsync cost.
	SyncAlways SyncPolicy = "always"
	// SyncEveryInterval group-commits: a background flusher fsyncs every
	// Options.Interval, so a crash loses at most one interval of
	// acknowledged updates (the Redis appendfsync-everysec tradeoff).
	SyncEveryInterval SyncPolicy = "interval"
	// SyncNever leaves flushing to the OS page cache.
	SyncNever SyncPolicy = "none"
)

// ParsePolicy validates a CLI policy name.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncEveryInterval, SyncNever:
		return SyncPolicy(s), nil
	default:
		return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval or none)", s)
	}
}

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Zero selects 64 MiB.
	SegmentBytes int64
	// Policy selects the fsync discipline; empty selects SyncEveryInterval.
	Policy SyncPolicy
	// Interval is the group-commit period under SyncEveryInterval. Zero
	// selects 100ms.
	Interval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Policy == "" {
		o.Policy = SyncEveryInterval
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// indexStride is how many records separate sparse offset-index entries: a
// ReadFrom seeks to the floor entry and parses at most indexStride-1
// frames before reaching its start LSN, instead of re-reading the segment
// from its beginning on every follower poll.
const indexStride = 512

// recOff is one sparse-index entry: the byte offset of a record's frame.
type recOff struct {
	lsn uint64
	off int64
}

// segment is the in-memory index of one segment file.
type segment struct {
	name  string
	first uint64   // LSN of the first record
	last  uint64   // LSN of the last record; first-1 when empty
	size  int64    // valid bytes (header + whole frames)
	index []recOff // sparse record offsets, every indexStride records
}

func (s segment) records() uint64 { return s.last - s.first + 1 }

// floorOffset returns the largest indexed offset at or below lsn (the
// segment header end when none).
func (s *segment) floorOffset(lsn uint64) int64 {
	off := int64(segHdrSize)
	for _, e := range s.index {
		if e.lsn > lsn {
			break
		}
		off = e.off
	}
	return off
}

// Log is an append-only segmented record log. Appends, compaction, and
// metadata reads are safe for concurrent use; ReadFrom runs lock-free over
// immutable segment prefixes.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	segs   []segment
	f      *os.File // active segment (last of segs); nil before first append
	head   uint64   // last assigned LSN; == base while the log is empty
	base   uint64   // head value of the empty log (SetBase)
	dirty  bool     // bytes written since the last fsync
	closed bool
	// syncErr latches a background fsync failure; every later Append
	// returns it, so group-commit cannot silently drop durability.
	syncErr error

	// commit is the commit-notification hook: closed and replaced whenever
	// head advances (and on Close), so long-poll log tails wake off the
	// append path instead of polling.
	commit chan struct{}

	appends       atomic.Uint64
	syncs         atomic.Uint64
	appendedBytes atomic.Int64

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open opens (or creates) the log directory, scans every segment, repairs
// the active segment's torn tail, and positions the log for appends. A
// corrupt segment in the middle of the log is an error — that is real data
// loss, not a torn tail — while trailing damage in the final segment is
// truncated away.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: log dir: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, commit: make(chan struct{})}
	prevLast := uint64(0)
	for i, name := range names {
		final := i == len(names)-1
		seg, err := scanSegment(filepath.Join(dir, name), prevLast, final)
		if err != nil {
			return nil, err
		}
		if seg == nil { // final segment with nothing recoverable
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("wal: removing unrecoverable segment %s: %w", name, err)
			}
			continue
		}
		if prevLast > 0 && seg.records() > 0 && seg.first != prevLast+1 {
			return nil, fmt.Errorf("wal: segment %s starts at LSN %d, previous ends at %d", name, seg.first, prevLast)
		}
		l.segs = append(l.segs, *seg)
		if seg.records() > 0 {
			prevLast = seg.last
		}
	}
	l.head = prevLast
	if len(l.segs) > 0 {
		// Reopen the active segment for appends at its repaired length.
		last := &l.segs[len(l.segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, last.name), os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: reopening active segment: %w", err)
		}
		if err := f.Truncate(last.size); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: repairing active segment tail: %w", err)
		}
		if _, err := f.Seek(last.size, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seeking active segment: %w", err)
		}
		l.f = f
	}
	if opts.Policy == SyncEveryInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading log dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// scanSegment reads one segment file and returns its validated index. For
// the final segment, scanning stops at the first invalid frame (the torn
// tail) and the segment is returned with the shortened size; a final
// segment with an unreadable header and zero valid frames returns (nil,
// nil) so Open can drop it. For non-final segments any damage is an error.
func scanSegment(path string, prevLast uint64, final bool) (*segment, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: reading segment: %w", err)
	}
	name := filepath.Base(path)
	hdrOK := len(raw) >= segHdrSize &&
		binary.LittleEndian.Uint32(raw[0:]) == segMagic &&
		binary.LittleEndian.Uint32(raw[4:]) == segVersion
	var expect uint64 // next expected LSN; 0 = adopt the first seen
	if hdrOK {
		expect = binary.LittleEndian.Uint64(raw[8:])
	} else if !final {
		return nil, fmt.Errorf("wal: segment %s has a corrupt header mid-log", name)
	} else if prevLast > 0 {
		expect = prevLast + 1
	}
	if len(raw) < segHdrSize {
		if !final {
			return nil, fmt.Errorf("wal: segment %s truncated mid-log", name)
		}
		return nil, nil
	}
	seg := &segment{name: name, size: segHdrSize}
	count := 0
	off := segHdrSize
	for {
		rec, n := parseFrame(raw[off:])
		if n == 0 {
			break // torn or corrupt tail
		}
		if expect != 0 && rec.LSN != expect {
			break // frame decodes but breaks the LSN chain: treat as tail damage
		}
		if count == 0 {
			seg.first = rec.LSN
		}
		if count%indexStride == 0 {
			seg.index = append(seg.index, recOff{lsn: rec.LSN, off: int64(off)})
		}
		seg.last = rec.LSN
		expect = rec.LSN + 1
		count++
		off += n
		seg.size = int64(off)
	}
	if off != len(raw) && !final {
		return nil, fmt.Errorf("wal: segment %s corrupt at offset %d mid-log", name, off)
	}
	if count == 0 {
		if !hdrOK {
			return nil, nil
		}
		// Valid header, no records: an empty segment created and never
		// appended to (or fully torn). first/last describe the empty range.
		first := binary.LittleEndian.Uint64(raw[8:])
		seg.first, seg.last = first, first-1
	}
	return seg, nil
}

// parseFrame decodes one frame from b, returning the record and the frame's
// byte length, or (Record{}, 0) when b does not start with a whole, valid
// frame. The record's Body aliases b — callers that outlive b (none today:
// the Open-time scan discards records, tests hold the backing buffer) must
// copy it.
func parseFrame(b []byte) (Record, int) {
	if len(b) < frameHdr {
		return Record{}, 0
	}
	plen := binary.LittleEndian.Uint32(b[0:])
	if plen < 9 || plen > maxFrameBytes {
		return Record{}, 0
	}
	end := frameHdr + int(plen)
	if len(b) < end {
		return Record{}, 0
	}
	payload := b[frameHdr:end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0
	}
	rec := Record{
		LSN:  binary.LittleEndian.Uint64(payload[0:]),
		Kind: Kind(payload[8]),
	}
	if !rec.Kind.valid() {
		return Record{}, 0
	}
	rec.Body = payload[9:]
	return rec, end
}

// encodeFrame assembles the on-disk (and on-wire) form of rec.
func encodeFrame(rec Record) []byte {
	plen := 9 + len(rec.Body)
	b := make([]byte, frameHdr+plen)
	binary.LittleEndian.PutUint32(b[0:], uint32(plen))
	payload := b[frameHdr:]
	binary.LittleEndian.PutUint64(payload[0:], rec.LSN)
	payload[8] = byte(rec.Kind)
	copy(payload[9:], rec.Body)
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
	return b
}

// HeadLSN returns the last assigned LSN (0 before any record or base).
func (l *Log) HeadLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// FirstLSN returns the first retained LSN, or 0 when the log holds no
// records (fresh, fully compacted-and-empty, or just based).
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLocked()
}

func (l *Log) firstLocked() uint64 {
	for _, s := range l.segs {
		if s.records() > 0 {
			return s.first
		}
	}
	return 0
}

// IsEmpty reports whether the log holds no records.
func (l *Log) IsEmpty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head == l.base && l.firstLocked() == 0
}

// SetBase positions an empty log so its first appended record gets LSN
// lsn+1 — the attach step after recovering an engine from a checkpoint
// into a fresh (or fully compacted) log directory.
func (l *Log) SetBase(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.firstLocked() != 0 || l.head != l.base {
		return fmt.Errorf("wal: SetBase(%d) on a non-empty log (head %d)", lsn, l.head)
	}
	l.base, l.head = lsn, lsn
	return nil
}

// Append assigns the next LSN to a new record and writes it. Durability at
// return time depends on the sync policy (see SyncPolicy).
func (l *Log) Append(kind Kind, body []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := Record{LSN: l.head + 1, Kind: kind, Body: body}
	if err := l.appendLocked(rec); err != nil {
		return 0, err
	}
	return rec.LSN, nil
}

// AppendRecord writes a record that already carries its LSN — the follower
// path, persisting the primary's stream locally. The LSN must extend the
// log by exactly one; on a log with no records and no base, the first
// record establishes the base.
func (l *Log) AppendRecord(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == 0 && l.base == 0 && l.firstLocked() == 0 && rec.LSN > 0 {
		l.base, l.head = rec.LSN-1, rec.LSN-1
	}
	if rec.LSN != l.head+1 {
		return fmt.Errorf("wal: record LSN %d does not extend head %d", rec.LSN, l.head)
	}
	return l.appendLocked(rec)
}

func (l *Log) appendLocked(rec Record) error {
	t0 := time.Now()
	defer obs.WALAppend.RecordSince(t0)
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.syncErr != nil {
		return fmt.Errorf("wal: previous fsync failed: %w", l.syncErr)
	}
	if !rec.Kind.valid() {
		return fmt.Errorf("wal: invalid record kind %d", uint8(rec.Kind))
	}
	if l.f == nil || l.segs[len(l.segs)-1].size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(rec.LSN); err != nil {
			return err
		}
	}
	frame := encodeFrame(rec)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: appending record %d: %w", rec.LSN, err)
	}
	seg := &l.segs[len(l.segs)-1]
	if seg.records() == 0 {
		seg.first = rec.LSN
		seg.last = rec.LSN - 1
	}
	if seg.records()%indexStride == 0 {
		seg.index = append(seg.index, recOff{lsn: rec.LSN, off: seg.size})
	}
	seg.last = rec.LSN
	seg.size += int64(len(frame))
	l.head = rec.LSN
	l.dirty = true
	l.notifyCommitLocked()
	l.appends.Add(1)
	l.appendedBytes.Add(int64(len(frame)))
	if l.opts.Policy == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// rotateLocked syncs and closes the active segment and starts a new one
// whose name and header record the first LSN it will hold.
func (l *Log) rotateLocked(first uint64) error {
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: closing segment: %w", err)
		}
		l.f = nil
	}
	name := fmt.Sprintf("%020d%s", first, segSuffix)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [segHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	// Make the new dirent durable so a crash cannot resurrect a log whose
	// tail segment the filesystem forgot (best-effort: some filesystems
	// reject directory fsync).
	syncDir(l.dir)
	l.f = f
	l.segs = append(l.segs, segment{name: name, first: first, last: first - 1, size: segHdrSize})
	return nil
}

func (l *Log) syncLocked() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	t0 := time.Now()
	err := l.f.Sync()
	obs.WALFsync.RecordSince(t0)
	if err != nil {
		l.syncErr = err
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.syncs.Add(1)
	return nil
}

// notifyCommitLocked wakes every CommitSignal waiter by closing the
// current notification channel and installing a fresh one.
func (l *Log) notifyCommitLocked() {
	close(l.commit)
	l.commit = make(chan struct{})
}

// CommitSignal returns a channel closed on the next head advance (or on
// Close). It is a level-triggered wakeup, not a queue: grab the channel,
// re-check HeadLSN (an append may have landed in between), then park.
// After each wake, call CommitSignal again for a fresh channel.
func (l *Log) CommitSignal() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commit
}

// Sync forces the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			l.mu.Lock()
			_ = l.syncLocked() // latched in syncErr; next Append surfaces it
			l.mu.Unlock()
		}
	}
}

// Close stops the group-commit flusher, syncs, and closes the active
// segment. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.notifyCommitLocked() // wake parked tailers so they observe the close
	l.mu.Unlock()
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// ReadFrom returns up to maxRecords records starting at LSN from, plus the
// head LSN at snapshot time. from == head+1 returns an empty batch; a from
// below the first retained LSN returns ErrCompacted (restart from a
// checkpoint); a from beyond head+1 is an error. Reading is safe while
// appends continue: a partially written tail frame simply ends the batch.
func (l *Log) ReadFrom(from uint64, maxRecords int) ([]Record, uint64, error) {
	if maxRecords <= 0 {
		maxRecords = 1 << 16
	}
	l.mu.Lock()
	head := l.head
	first := l.firstLocked()
	base := l.base
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()

	if from == 0 {
		return nil, head, fmt.Errorf("wal: LSNs start at 1")
	}
	if from > head+1 {
		return nil, head, fmt.Errorf("wal: LSN %d beyond head %d", from, head)
	}
	if from == head+1 {
		return nil, head, nil
	}
	if first == 0 || from < first || from <= base {
		return nil, head, fmt.Errorf("%w (first retained LSN %d, requested %d)", ErrCompacted, first, from)
	}
	var out []Record
	for i := range segs {
		seg := &segs[i]
		if seg.records() == 0 || seg.last < from {
			continue
		}
		recs, done, err := l.readSegment(seg, from, head, maxRecords-len(out))
		if err != nil {
			return nil, head, err
		}
		out = append(out, recs...)
		if done || len(out) >= maxRecords {
			return out, head, nil
		}
	}
	return out, head, nil
}

// readSegment streams records with from <= LSN <= head out of one segment,
// seeking to the sparse-index floor of from first, so tailing near the head
// reads O(returned records + indexStride), not O(segment size). done
// reports that the caller should stop (a record past the head snapshot was
// reached). Reading is safe against concurrent appends: a torn or
// partially visible tail frame just ends the batch.
func (l *Log) readSegment(seg *segment, from, head uint64, maxRecords int) (recs []Record, done bool, err error) {
	f, err := os.Open(filepath.Join(l.dir, seg.name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, fmt.Errorf("%w (segment %s removed mid-read)", ErrCompacted, seg.name)
		}
		return nil, false, fmt.Errorf("wal: opening segment %s: %w", seg.name, err)
	}
	defer f.Close()
	if _, err := f.Seek(seg.floorOffset(from), 0); err != nil {
		return nil, false, fmt.Errorf("wal: seeking segment %s: %w", seg.name, err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	for len(recs) < maxRecords {
		rec, ok := readFrameLenient(br)
		if !ok {
			return recs, false, nil // torn tail or end of segment
		}
		if rec.LSN < from {
			continue
		}
		if rec.LSN > head {
			return recs, true, nil // appended after the caller's snapshot
		}
		recs = append(recs, rec)
	}
	return recs, false, nil
}

// readFrameLenient reads one frame, treating any truncation or corruption
// as end-of-data (the disk-tail semantics; the strict network-side codec
// is ReadFrame).
func readFrameLenient(br *bufio.Reader) (Record, bool) {
	var hdr [frameHdr]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Record{}, false
	}
	plen := binary.LittleEndian.Uint32(hdr[0:])
	if plen < 9 || plen > maxFrameBytes {
		return Record{}, false
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Record{}, false
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return Record{}, false
	}
	rec := Record{
		LSN:  binary.LittleEndian.Uint64(payload[0:]),
		Kind: Kind(payload[8]),
		Body: payload[9:],
	}
	if !rec.Kind.valid() {
		return Record{}, false
	}
	return rec, true
}

// Reset discards every record and un-bases the log: all segment files are
// removed and the next append (or AppendRecord) starts fresh. A follower
// uses it when its local log no longer lines up with the primary's stream
// (e.g. bootstrapping from a primary checkpoint past the local head) —
// replica logs are caches of the primary's, so discarding one loses
// nothing the primary still has.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: closing active segment: %w", err)
		}
		l.f = nil
	}
	for _, seg := range l.segs {
		if err := os.Remove(filepath.Join(l.dir, seg.name)); err != nil {
			return fmt.Errorf("wal: removing segment %s: %w", seg.name, err)
		}
	}
	l.segs = nil
	l.head, l.base = 0, 0
	l.dirty = false
	return nil
}

// Compact removes whole segments whose records all have LSN <= through,
// never touching the active segment. It returns how many segments were
// deleted. The caller passes the LSN stamped into a durable checkpoint, so
// everything the checkpoint already covers stops occupying disk.
func (l *Log) Compact(through uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segs) > 1 {
		seg := l.segs[0]
		if seg.records() > 0 && seg.last > through {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, seg.name)); err != nil {
			return removed, fmt.Errorf("wal: removing segment %s: %w", seg.name, err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		// Persist the unlinks alongside the checkpoint rename that
		// justified them (see AtomicWriteFile's directory sync).
		syncDir(l.dir)
	}
	return removed, nil
}

// Stats is the log's monitoring block (the /statsz "wal" object).
type Stats struct {
	HeadLSN       uint64 `json:"head_lsn"`
	FirstLSN      uint64 `json:"first_lsn"`
	Segments      int    `json:"segments"`
	SizeBytes     int64  `json:"size_bytes"`
	Appends       uint64 `json:"appends"`
	Syncs         uint64 `json:"syncs"`
	AppendedBytes int64  `json:"appended_bytes"`
	Policy        string `json:"fsync_policy"`
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		HeadLSN:       l.head,
		FirstLSN:      l.firstLocked(),
		Segments:      len(l.segs),
		Appends:       l.appends.Load(),
		Syncs:         l.syncs.Load(),
		AppendedBytes: l.appendedBytes.Load(),
		Policy:        string(l.opts.Policy),
	}
	for _, s := range l.segs {
		st.SizeBytes += s.size
	}
	return st
}

// Applier is the replay target: engine.Engine (a shard member's included)
// applies records through it during recovery and follower tailing.
type Applier interface {
	// ApplyRecord applies one logged mutation; the record's LSN must be the
	// applier's LSN plus one.
	ApplyRecord(rec Record) error
	// LSN reports the last applied LSN.
	LSN() uint64
}

// Replay drives every record after target.LSN() through the target — the
// recovery tail replay after a checkpoint load (or a from-scratch replay at
// LSN 0). It fails when the log cannot serve the tail: records between the
// target's LSN and the first retained LSN were compacted away. An empty
// un-based log has nothing to replay regardless of the target's LSN — the
// checkpoint-restored-into-a-fresh-directory case; AttachWAL will base it.
func Replay(l *Log, target Applier) (int, error) {
	if l.IsEmpty() {
		return 0, nil
	}
	n := 0
	for {
		from := target.LSN() + 1
		recs, head, err := l.ReadFrom(from, 4096)
		if err != nil {
			return n, err
		}
		for _, rec := range recs {
			if err := target.ApplyRecord(rec); err != nil {
				return n, fmt.Errorf("wal: replaying LSN %d: %w", rec.LSN, err)
			}
			n++
		}
		if target.LSN() >= head {
			return n, nil
		}
		if len(recs) == 0 {
			return n, fmt.Errorf("wal: replay stalled at LSN %d with head %d", target.LSN(), head)
		}
	}
}
