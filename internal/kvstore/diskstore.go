package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"seqlog/internal/metrics"
)

// Record operations in the write-ahead log.
const (
	opPut byte = iota + 1
	opAppend
	opDelete
	opDropTable

	// Batch markers group the records between them into one atomic unit:
	// recovery applies the group only when its commit marker is present, so
	// a crash mid-group rolls the store back to the last committed batch.
	// Markers appear only in the WAL, never in snapshots.
	opBatchBegin
	opBatchCommit
)

// DiskStore is the durable engine: all data lives in an in-memory MemStore
// for reads, while every mutation is first written to a write-ahead log.
// Compact() folds the state into a snapshot file and truncates the log; Open
// recovers by loading the snapshot and replaying the remaining log, dropping
// a torn tail record if the process died mid-write.
//
// File layout inside the directory:
//
//	SNAPSHOT    full state at the last compaction (may be absent)
//	WAL         records appended since the snapshot
//	QUARANTINE  corrupt byte regions skipped by salvage recovery (forensics)
//
// Both files carry an epoch: Compact writes the snapshot under epoch e+1
// (temp file + fsync + rename + directory fsync) before resetting the WAL to
// epoch e+1, so a crash at any byte of the compaction leaves either the old
// (snapshot e, WAL e) or the new (snapshot e+1, WAL e+1) state, with a
// lower-epoch WAL recognisably stale and discarded on recovery.
//
// A write error (WAL append, flush or fsync failure) poisons the store: the
// in-memory state and the log can no longer be trusted to agree, so every
// later mutation and Sync fails with the original error until the store is
// reopened (which re-derives the state from what actually reached the disk).
type DiskStore struct {
	mu   sync.Mutex // serialises WAL writes and compaction
	mem  *MemStore
	fs   FS
	dir  string
	wal  File
	bw   *bufio.Writer
	size int64  // bytes in the WAL (header included)
	rec  []byte // logAndApply's record buffer, reused under mu

	// Group-commit fsync coalescing (syncTo): syncing marks a leader's fsync
	// in flight with the store unlocked; followers (and Close/Compact, which
	// must not pull the file out from under it) wait on syncCond. WAL writes
	// never wait — appending to the buffered writer while an fsync runs is
	// safe, it just isn't covered by that fsync. writtenTotal/durableTotal
	// are the monotonic counterparts of size/durable: they never reset, so a
	// sealed group's durability target stays meaningful across a compaction
	// (which folds every applied record — sealed groups included — into the
	// snapshot and therefore advances durableTotal to writtenTotal).
	syncing      bool
	syncCond     *sync.Cond
	writtenTotal int64
	durableTotal int64

	epoch   uint64 // current snapshot/WAL epoch
	legacy  bool   // WAL has no header (pre-epoch format); healed by Compact
	inBatch bool   // an atomic record group is open (BeginBatch without CommitBatch)

	// Log-shipping watermarks (replsource.go): durable is the byte offset up
	// to which the WAL is fsynced — the only prefix replication may serve —
	// and walStart is where records begin (walHeaderLen, or 0 on a legacy
	// header-less log).
	durable  int64
	walStart int64

	salvage bool
	stats   RecoveryStats
	failed  error // sticky write-path error; poisons all later mutations

	// CompactAt is the WAL size in bytes beyond which Sync triggers an
	// automatic compaction. Zero disables auto-compaction.
	CompactAt int64

	// beforeCompact, when set, runs just before an automatic compaction
	// (outside the store lock) — the storage layer hooks it to fold index
	// rows into a postings segment so the snapshot shrinks to metadata.
	// hookActive suppresses re-triggering while the hook itself writes and
	// syncs: without it, the hook's own commit would recurse into it.
	beforeCompact func() error
	hookActive    bool

	// Durability timings (nil-safe no-ops when DiskOptions.Metrics is unset):
	// fsyncH observes each WAL flush+fsync, compactH each full compaction.
	fsyncH   *metrics.Histogram
	compactH *metrics.Histogram

	closed bool
}

// maxKeptRecord caps the record buffer a store keeps for reuse, so one
// large write does not pin its size.
const maxKeptRecord = 1 << 20

const (
	walName        = "WAL"
	snapshotName   = "SNAPSHOT"
	quarantineName = "QUARANTINE"
	magic          = "seqlogkv2" // snapshot header: magic + uint64 epoch
	magicV1        = "seqlogkv1" // legacy snapshot header: magic only, epoch 0
	walMagic       = "seqlogw2"  // WAL header: magic + uint64 epoch
	walHeaderLen   = len(walMagic) + 8
	snapHeaderLen  = len(magic) + 8
)

// Typed corruption errors. A torn tail (half-written final record) is a
// normal crash artifact and is dropped silently; these errors mean bytes that
// were once durable no longer decode.
var (
	// ErrCorruptWAL reports mid-log WAL corruption: a record fails its
	// checksum while valid records still follow it, so dropping the tail
	// would lose acknowledged data. Open with Salvage to skip the corrupt
	// region and keep the rest.
	ErrCorruptWAL = errors.New("kvstore: corrupt wal")

	// ErrCorruptSnapshot reports snapshot corruption. Snapshots are written
	// atomically, so any decode failure means bitrot or truncation, never a
	// crash artifact. Open with Salvage to keep the readable records.
	ErrCorruptSnapshot = errors.New("kvstore: corrupt snapshot")
)

// RecoveryStats describes what crash recovery found when the store was
// opened. Zero values mean a clean start.
type RecoveryStats struct {
	// SnapshotRecords is the number of records restored from SNAPSHOT.
	SnapshotRecords int64 `json:"snapshotRecords,omitempty"`
	// WALReplayed is the number of WAL records applied.
	WALReplayed int64 `json:"walReplayed,omitempty"`
	// TornTailBytes counts trailing bytes of a half-written record dropped
	// from the WAL — the normal artifact of a crash mid-append.
	TornTailBytes int64 `json:"tornTailBytes,omitempty"`
	// StaleWALBytes counts bytes of an already-compacted WAL generation
	// discarded — the normal artifact of a crash mid-compaction.
	StaleWALBytes int64 `json:"staleWALBytes,omitempty"`
	// DroppedRegions counts corrupt byte regions (records or headers) that
	// salvage recovery skipped; DroppedBytes is their total size. Non-zero
	// regions mean committed data may have been lost: the store is degraded.
	DroppedRegions int64 `json:"droppedRegions,omitempty"`
	DroppedBytes   int64 `json:"droppedBytes,omitempty"`
	// UncommittedBatchBytes counts bytes of atomic record groups whose
	// commit marker never reached the disk, discarded on recovery — the
	// normal artifact of a crash mid-group-commit. The store rolls back to
	// the last committed batch; nothing acknowledged is lost.
	UncommittedBatchBytes int64 `json:"uncommittedBatchBytes,omitempty"`
	// Salvaged is true when recovery dropped possibly-committed data.
	Salvaged bool `json:"salvaged,omitempty"`
}

// Degraded reports whether recovery lost possibly-committed data.
func (r RecoveryStats) Degraded() bool { return r.Salvaged }

// DiskOptions configures OpenDiskWith.
type DiskOptions struct {
	// FS overrides the filesystem (fault injection in tests); nil = OSFS.
	FS FS
	// Salvage switches recovery to quarantine-and-continue: corrupt WAL or
	// snapshot regions are appended to the QUARANTINE file and skipped
	// instead of failing the open with ErrCorruptWAL/ErrCorruptSnapshot,
	// and the store reports itself degraded through Recovery().
	Salvage bool
	// Metrics, when set, receives the durability telemetry: WAL fsync and
	// compaction latency histograms plus a WAL size gauge. Nil disables
	// instrumentation at zero cost.
	Metrics *metrics.Registry
}

// OpenDisk opens (or creates) a durable store rooted at dir.
func OpenDisk(dir string) (*DiskStore, error) {
	return OpenDiskWith(dir, DiskOptions{})
}

// OpenDiskWith is OpenDisk with an injected filesystem and recovery options.
func OpenDiskWith(dir string, opts DiskOptions) (*DiskStore, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}
	s := &DiskStore{mem: NewMemStore(), fs: fs, dir: dir, salvage: opts.Salvage, CompactAt: 64 << 20}
	s.syncCond = sync.NewCond(&s.mu)
	s.fsyncH = opts.Metrics.Histogram("seqlog_wal_fsync_seconds")
	s.compactH = opts.Metrics.Histogram("seqlog_wal_compaction_seconds")
	opts.Metrics.GaugeFunc("seqlog_wal_size_bytes", s.walSize)
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	f, err := fs.OpenFile(s.path(walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s.wal = f
	s.size = st.Size()
	s.durable = s.size // everything that survived recovery is on disk
	s.bw = bufio.NewWriterSize(f, 1<<20)
	if s.stats.Salvaged {
		// Re-establish a clean on-disk state: the WAL still contains the
		// corrupt regions recovery skipped, so fold the salvaged state into
		// a fresh snapshot and restart the log.
		if err := s.Compact(); err != nil {
			s.Close()
			return nil, fmt.Errorf("kvstore: compact after salvage: %w", err)
		}
	}
	return s, nil
}

// Recovery reports what crash recovery found when this store was opened.
func (s *DiskStore) Recovery() RecoveryStats { return s.stats }

func (s *DiskStore) path(name string) string { return filepath.Join(s.dir, name) }

// record layout: crc32(payload) uint32 | len(payload) uint32 | payload
// payload: op byte | table varint-string | key varint-string | value varint-bytes
//
// The record is encoded in place: the header is reserved, the payload
// appended behind it, and the header filled in last.
func encodeRecord(buf []byte, op byte, table, key string, value []byte) []byte {
	start := len(buf)
	buf = slices.Grow(buf, 8+1+3*binary.MaxVarintLen64+len(table)+len(key)+len(value))
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, op)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	buf = append(buf, table...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = append(buf, value...)

	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(payload)))
	return buf
}

// errTornRecord marks a record that does not decode at its offset (truncated,
// checksum mismatch or malformed payload).
var errTornRecord = errors.New("kvstore: torn wal record")

// decodeRecordAt decodes the record starting at data[off:]. It returns the
// offset just past the record, or errTornRecord when no whole valid record
// starts there. The returned value aliases data.
func decodeRecordAt(data []byte, off int) (op byte, table, key string, value []byte, next int, err error) {
	if off+8 > len(data) {
		return 0, "", "", nil, off, errTornRecord
	}
	sum := binary.LittleEndian.Uint32(data[off : off+4])
	n := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > 1<<30 || off+8+int(n) > len(data) {
		return 0, "", "", nil, off, errTornRecord
	}
	payload := data[off+8 : off+8+int(n)]
	if crc32.ChecksumIEEE(payload) != sum || len(payload) < 1 {
		return 0, "", "", nil, off, errTornRecord
	}
	op = payload[0]
	rest := payload[1:]
	readStr := func() (string, bool) {
		l, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < l {
			return "", false
		}
		str := string(rest[k : k+int(l)])
		rest = rest[k+int(l):]
		return str, true
	}
	var ok bool
	if table, ok = readStr(); !ok {
		return 0, "", "", nil, off, errTornRecord
	}
	if key, ok = readStr(); !ok {
		return 0, "", "", nil, off, errTornRecord
	}
	l, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) != l {
		return 0, "", "", nil, off, errTornRecord
	}
	value = rest[k : k+int(l)]
	return op, table, key, value, off + 8 + int(n), nil
}

// resyncRecord scans forward from just past off for the next offset where a
// whole record decodes — the boundary between a corrupt region and readable
// data. found is false when nothing decodes before the end.
func resyncRecord(data []byte, off int) (next int, found bool) {
	for i := off + 1; i+8 <= len(data); i++ {
		if _, _, _, _, _, err := decodeRecordAt(data, i); err == nil {
			return i, true
		}
	}
	return len(data), false
}

func (s *DiskStore) apply(op byte, table, key string, value []byte) error {
	switch op {
	case opPut:
		return s.mem.Put(table, key, value)
	case opAppend:
		return s.mem.Append(table, key, value)
	case opDelete:
		return s.mem.Delete(table, key)
	case opDropTable:
		return s.mem.DropTable(table)
	default:
		return fmt.Errorf("kvstore: unknown wal op %d", op)
	}
}

// walRec is one decoded record buffered while replaying an atomic batch.
type walRec struct {
	op         byte
	table, key string
	value      []byte
}

// replayRecords applies the record stream in data[start:]. In the WAL a torn
// tail (no valid record after the failure point) is a normal crash artifact;
// in a snapshot — written atomically — every decode failure is corruption.
// Corruption fails with typedErr unless salvage is on, in which case the
// corrupt region is quarantined and skipped. It returns the offset just past
// the last applied record and the count of applied records.
//
// WAL records between opBatchBegin and opBatchCommit form an atomic group:
// they are buffered and applied only when the commit marker is reached. A
// group cut short by the end of the log (the crash-mid-group-commit artifact)
// is discarded whole, so recovery always lands on a committed-batch boundary.
func (s *DiskStore) replayRecords(data []byte, start int, isWAL bool, typedErr error) (goodEnd int, applied int64, err error) {
	off := start
	goodEnd = start
	batchStart := -1 // offset of the opBatchBegin of an open group, -1 when none
	var batch []walRec
	for off < len(data) {
		op, table, key, value, next, derr := decodeRecordAt(data, off)
		var aerr error
		if derr == nil {
			switch {
			case isWAL && op == opBatchBegin:
				if batchStart >= 0 {
					// A fresh group opened while one was pending: the pending
					// group's commit never made it. Discard it.
					s.stats.UncommittedBatchBytes += int64(off - batchStart)
					batch = batch[:0]
				}
				batchStart = off
				off = next
				continue
			case isWAL && op == opBatchCommit:
				if batchStart < 0 {
					// Stray commit without a begin; nothing to apply.
					off, goodEnd = next, next
					continue
				}
				batchStart = -1
				for _, r := range batch {
					if aerr = s.apply(r.op, r.table, r.key, r.value); aerr != nil {
						break
					}
					applied++
				}
				batch = batch[:0]
				if aerr == nil {
					off, goodEnd = next, next
					continue
				}
				// An unapplicable record inside a committed group: fall
				// through to the corruption classification below.
			case isWAL && batchStart >= 0:
				// Inside an open group: defer application until its commit.
				batch = append(batch, walRec{op: op, table: table, key: key, value: value})
				off = next
				continue
			default:
				if aerr = s.apply(op, table, key, value); aerr == nil {
					applied++
					off, goodEnd = next, next
					continue
				}
			}
		}
		// data[off:] does not decode (or decodes to an inapplicable op).
		// Find where readable records resume to classify the failure.
		resume, found := resyncRecord(data, off)
		if derr == nil && aerr != nil && !found {
			// A checksum-valid record we cannot apply, with nothing after:
			// not a torn write — surface it.
			if !s.salvage {
				return goodEnd, applied, fmt.Errorf("%w: %v", typedErr, aerr)
			}
		}
		if !found && isWAL && derr != nil {
			// Torn tail: the process died mid-append. Normal; drop it,
			// together with any group whose commit it cut off.
			s.stats.TornTailBytes += int64(len(data) - off)
			if batchStart >= 0 {
				s.stats.UncommittedBatchBytes += int64(off - batchStart)
			}
			return goodEnd, applied, nil
		}
		if !s.salvage {
			if !found {
				// Torn snapshot tail — snapshots are atomic, so corruption.
				return goodEnd, applied, fmt.Errorf("%w: torn record at byte %d", typedErr, off)
			}
			return goodEnd, applied, fmt.Errorf("%w: unreadable region at bytes [%d,%d)", typedErr, off, resume)
		}
		s.quarantine(data[off:resume])
		s.stats.DroppedRegions++
		s.stats.DroppedBytes += int64(resume - off)
		s.stats.Salvaged = true
		off = resume
		if !found {
			if batchStart >= 0 {
				s.stats.UncommittedBatchBytes += int64(len(data) - batchStart)
			}
			return goodEnd, applied, nil
		}
	}
	if batchStart >= 0 {
		// The log ends inside a group whose commit never made it: the
		// crash hit mid-group-commit. Roll back to the committed prefix.
		s.stats.UncommittedBatchBytes += int64(len(data) - batchStart)
	}
	return goodEnd, applied, nil
}

// quarantine preserves a corrupt byte region for forensics, best effort.
func (s *DiskStore) quarantine(region []byte) {
	f, err := s.fs.OpenFile(s.path(quarantineName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	f.Write(region)
	f.Close()
}

func (s *DiskStore) loadSnapshot() error {
	data, err := s.fs.ReadFile(s.path(snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: read snapshot: %w", err)
	}
	start := 0
	switch {
	case len(data) >= snapHeaderLen && string(data[:len(magic)]) == magic:
		s.epoch = binary.LittleEndian.Uint64(data[len(magic):snapHeaderLen])
		start = snapHeaderLen
	case len(data) >= len(magicV1) && string(data[:len(magicV1)]) == magicV1:
		s.epoch = 0
		start = len(magicV1)
	default:
		if !s.salvage {
			return fmt.Errorf("%w: bad header", ErrCorruptSnapshot)
		}
		// Unreadable header: quarantine the whole snapshot and fall back to
		// whatever the WAL holds.
		s.quarantine(data)
		s.stats.DroppedRegions++
		s.stats.DroppedBytes += int64(len(data))
		s.stats.Salvaged = true
		return nil
	}
	_, applied, err := s.replayRecords(data, start, false, ErrCorruptSnapshot)
	s.stats.SnapshotRecords = applied
	return err
}

func (s *DiskStore) replayWAL() error {
	walPath := s.path(walName)
	data, err := s.fs.ReadFile(walPath)
	if errors.Is(err, os.ErrNotExist) {
		return s.resetWAL()
	}
	if err != nil {
		return fmt.Errorf("kvstore: read wal: %w", err)
	}

	start := walHeaderLen
	if len(data) >= walHeaderLen && string(data[:len(walMagic)]) == walMagic {
		walEpoch := binary.LittleEndian.Uint64(data[len(walMagic):walHeaderLen])
		switch {
		case walEpoch == s.epoch:
			// The normal case: records since the snapshot.
		case walEpoch < s.epoch:
			// Crash between the snapshot rename and the WAL reset: this log
			// generation is already folded into the snapshot. Discard it.
			s.stats.StaleWALBytes += int64(len(data))
			return s.resetWAL()
		default: // walEpoch > s.epoch
			// The snapshot this log extends is gone (or its header rotted).
			if !s.salvage {
				return fmt.Errorf("%w: wal epoch %d ahead of snapshot epoch %d", ErrCorruptSnapshot, walEpoch, s.epoch)
			}
			s.stats.Salvaged = true
			s.stats.DroppedRegions++ // the missing snapshot itself
		}
	} else {
		switch {
		case s.epoch == 0 && !s.stats.Salvaged:
			// Pre-epoch store (or a fresh WAL whose header write was cut
			// short): the records, if any, start at byte zero. A partial
			// header decodes as a torn record and is dropped below.
			start = 0
			s.legacy = len(data) > 0
		case len(data) <= walHeaderLen:
			// Crash while resetting the WAL after a compaction: nothing but
			// a partial header, and the snapshot already holds everything.
			s.stats.StaleWALBytes += int64(len(data))
			return s.resetWAL()
		default:
			// A snapshot exists but the WAL header does not decode — the
			// epoch stamp that proves these records are current is gone.
			if !s.salvage {
				return fmt.Errorf("%w: bad header", ErrCorruptWAL)
			}
			s.quarantine(data[:walHeaderLen])
			s.stats.DroppedRegions++
			s.stats.DroppedBytes += int64(walHeaderLen)
			s.stats.Salvaged = true
			start = walHeaderLen
		}
	}
	if start > len(data) {
		start = len(data)
	}

	goodEnd, applied, err := s.replayRecords(data, start, true, ErrCorruptWAL)
	s.stats.WALReplayed = applied
	if err != nil {
		return err
	}
	if goodEnd < len(data) && !s.stats.Salvaged {
		// Torn tail: truncate so the next append starts on a record
		// boundary. (After salvage the WAL is rebuilt by Compact instead.)
		if terr := s.fs.Truncate(walPath, int64(goodEnd)); terr != nil {
			return fmt.Errorf("kvstore: truncate torn wal: %w", terr)
		}
	}
	if s.legacy && applied == 0 && goodEnd == 0 {
		// Nothing decoded from byte zero: not really a legacy log, just a
		// truncated fresh one. Give it a proper header.
		s.legacy = false
		return s.resetWAL()
	}
	s.walStart = int64(start)
	return nil
}

// resetWAL truncates the WAL and stamps it with the current epoch.
func (s *DiskStore) resetWAL() error {
	s.walStart = int64(walHeaderLen)
	f, err := s.fs.OpenFile(s.path(walName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: reset wal: %w", err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(s.walHeader()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Make the file itself durable; its first fsync covers the contents.
	return s.fs.SyncDir(s.dir)
}

func (s *DiskStore) walHeader() []byte {
	hdr := make([]byte, walHeaderLen)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint64(hdr[len(walMagic):], s.epoch)
	return hdr
}

// poison records the first write-path failure; all later mutations fail.
func (s *DiskStore) poison(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return err
}

// ErrPoisoned wraps the original write failure in errors returned by a store
// whose WAL can no longer be trusted.
var ErrPoisoned = errors.New("kvstore: store poisoned by earlier write error")

func (s *DiskStore) poisonedErr() error {
	return fmt.Errorf("%w: %w", ErrPoisoned, s.failed)
}

// logAndApply writes the record to the WAL and applies it to the in-memory
// state under one lock, so a concurrent Compact can never snapshot state
// whose WAL record it is about to truncate.
func (s *DiskStore) logAndApply(op byte, table, key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.poisonedErr()
	}
	if err := s.writeRecord(op, table, key, value); err != nil {
		return err // the op is not applied
	}
	return s.apply(op, table, key, value)
}

// writeRecord appends one record to the buffered WAL, encoding it into the
// store's reused record buffer; s.mu is held. A failed write leaves the WAL
// tail unknowable (possibly a half-written record), so it poisons the store.
func (s *DiskStore) writeRecord(op byte, table, key string, value []byte) error {
	rec := encodeRecord(s.rec[:0], op, table, key, value)
	if cap(rec) <= maxKeptRecord {
		s.rec = rec
	}
	if _, err := s.bw.Write(rec); err != nil {
		return s.poison(fmt.Errorf("kvstore: wal write: %w", err))
	}
	s.size += int64(len(rec))
	s.writtenTotal += int64(len(rec))
	return nil
}

// Get implements Store.
func (s *DiskStore) Get(table, key string) ([]byte, bool, error) {
	return s.mem.Get(table, key)
}

// Put implements Store.
func (s *DiskStore) Put(table, key string, value []byte) error {
	return s.logAndApply(opPut, table, key, value)
}

// Append implements Store.
func (s *DiskStore) Append(table, key string, value []byte) error {
	return s.logAndApply(opAppend, table, key, value)
}

// Delete implements Store.
func (s *DiskStore) Delete(table, key string) error {
	return s.logAndApply(opDelete, table, key, nil)
}

// Scan implements Store.
func (s *DiskStore) Scan(table string, fn func(key string, value []byte) error) error {
	return s.mem.Scan(table, fn)
}

// DropTable implements Store.
func (s *DiskStore) DropTable(table string) error {
	return s.logAndApply(opDropTable, table, "", nil)
}

// Tables implements Store.
func (s *DiskStore) Tables() ([]string, error) { return s.mem.Tables() }

// Len implements Store.
func (s *DiskStore) Len(table string) (int, error) { return s.mem.Len(table) }

// Sync flushes buffered WAL records to the operating system and fsyncs the
// file, then compacts if the log has outgrown CompactAt. Batch ingestion
// calls Sync once per period, matching the paper's periodic update model.
// A flush or fsync failure poisons the store: acknowledging later writes on
// top of a half-flushed WAL would break the committed-prefix guarantee.
func (s *DiskStore) Sync() error {
	s.mu.Lock()
	need := s.writtenTotal
	s.mu.Unlock()
	if err := s.syncTo(need); err != nil {
		return err
	}
	return s.maybeCompact()
}

// syncTo makes the WAL durable through at least byte offset need. Concurrent
// callers share fsyncs: one becomes the leader, flushes everything buffered
// so far and fsyncs with the store unlocked, while followers wait on the
// condition and re-check the durable watermark — consecutive sealed groups
// coalesce into one fsync whenever their Waits overlap a running one.
// Writers never wait on an in-flight fsync (appending to the buffered writer
// is independent of it), so WAL appends of flush cycle N+1 proceed while
// cycle N is inside the disk; only Close, Compact and later sync leaders
// serialize behind it.
func (s *DiskStore) syncTo(need int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return ErrClosed
		}
		if s.failed != nil {
			return s.poisonedErr()
		}
		if s.durableTotal >= need {
			return nil
		}
		if s.syncing {
			// A leader's fsync is in flight; it covers every byte flushed
			// before it started. If that falls short of our target we loop
			// and lead the next round ourselves.
			s.syncCond.Wait()
			continue
		}
		start := time.Now()
		if err := s.bw.Flush(); err != nil {
			err = s.poison(fmt.Errorf("kvstore: wal flush: %w", err))
			s.syncCond.Broadcast()
			return err
		}
		target := s.writtenTotal // everything flushed above is at the OS now
		fileTarget := s.size
		s.syncing = true
		s.mu.Unlock()
		err := s.wal.Sync()
		s.mu.Lock()
		s.syncing = false
		s.syncCond.Broadcast()
		if err != nil {
			return s.poison(fmt.Errorf("kvstore: wal fsync: %w", err))
		}
		s.fsyncH.Observe(time.Since(start))
		if target > s.durableTotal {
			s.durableTotal = target
		}
		if fileTarget > s.durable {
			s.durable = fileTarget
		}
	}
}

// maybeCompact runs the auto-compaction check every durability point makes:
// fold the WAL into a snapshot once it outgrows CompactAt — never inside an
// open batch (the snapshot would bake in records whose commit marker does
// not exist yet), and never re-entrantly from the before-compact hook's own
// writes.
func (s *DiskStore) maybeCompact() error {
	s.mu.Lock()
	need := s.CompactAt > 0 && s.size > s.CompactAt && !s.inBatch && !s.hookActive
	hook := s.beforeCompact
	s.mu.Unlock()
	if !need {
		return nil
	}
	if hook != nil {
		s.mu.Lock()
		s.hookActive = true
		s.mu.Unlock()
		err := hook()
		s.mu.Lock()
		s.hookActive = false
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return s.Compact()
}

// SetBeforeCompact registers a hook that runs immediately before every
// automatic compaction, outside the store lock, so it may read and write the
// store. Sync issued from inside the hook never re-triggers it. Set it at
// open time, before concurrent use.
func (s *DiskStore) SetBeforeCompact(fn func() error) {
	s.mu.Lock()
	s.beforeCompact = fn
	s.mu.Unlock()
}

// BeginBatch opens an atomic record group: every mutation until CommitBatch
// is buffered by recovery and applied only if the commit marker reached the
// disk, so a crash anywhere inside the group rolls the store back to the
// state before BeginBatch. The caller must serialise: no concurrent writers
// between BeginBatch and CommitBatch, and groups do not nest.
func (s *DiskStore) BeginBatch() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.poisonedErr()
	}
	if s.inBatch {
		return errors.New("kvstore: batch already open")
	}
	if err := s.writeRecord(opBatchBegin, "", "", nil); err != nil {
		return err
	}
	s.inBatch = true
	return nil
}

// CommitBatch writes the group's commit marker and makes the whole group
// durable with a single WAL fsync — the group-commit that amortises
// durability over every record since BeginBatch. When it returns nil the
// batch is crash-safe.
func (s *DiskStore) CommitBatch() error {
	if _, err := s.SealBatch(); err != nil {
		return err
	}
	return s.Sync()
}

// batchToken is the Durability handle of a sealed group: the WAL byte offset
// just past its commit marker. Wait returns once the durable watermark
// covers it.
type batchToken struct {
	s   *DiskStore
	off int64
}

func (t batchToken) Wait() error { return t.s.syncTo(t.off) }

// SealBatch writes the group's commit marker and closes the group without
// waiting for the fsync (GroupCommitter): the caller may immediately open
// the next group and make both durable later through the returned handle,
// letting commits pipeline behind a shared fsync. Recovery semantics are
// those of CommitBatch — until Wait returns, the group may or may not
// survive a crash, so it must not be acknowledged.
func (s *DiskStore) SealBatch() (Durability, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.failed != nil {
		err := s.poisonedErr()
		s.mu.Unlock()
		return nil, err
	}
	if !s.inBatch {
		s.mu.Unlock()
		return nil, errors.New("kvstore: no batch open")
	}
	if err := s.writeRecord(opBatchCommit, "", "", nil); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.inBatch = false
	tok := batchToken{s: s, off: s.writtenTotal}
	over := s.CompactAt > 0 && s.size > s.CompactAt && !s.hookActive
	s.mu.Unlock()
	if over {
		// The WAL outgrew its budget and this is the only moment the
		// pipelined path is reliably between groups on this store — the next
		// group may open before the token's Wait runs, and auto-compaction
		// would starve forever. Sync makes the sealed group durable first,
		// then folds the log into a snapshot.
		if err := s.Sync(); err != nil {
			return nil, err
		}
	}
	return tok, nil
}

// AbortBatch abandons an open group after a mid-batch failure. The group's
// records may be partially durable and are already applied to the in-memory
// state, so the store is poisoned: reopening discards the uncommitted group
// and restores the last committed batch. A no-op when no batch is open.
func (s *DiskStore) AbortBatch(cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inBatch {
		return
	}
	s.inBatch = false
	if cause == nil {
		cause = errors.New("batch aborted")
	}
	s.poison(fmt.Errorf("kvstore: batch aborted mid-write: %w", cause))
}

// Compact writes the full state to a fresh snapshot under the next epoch and
// restarts the WAL. The snapshot becomes visible atomically (temp file,
// fsync, rename, directory fsync); a crash at any byte offset of the
// compaction recovers either the previous or the new state, never a mix.
func (s *DiskStore) Compact() error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing {
		// Never truncate the WAL while a group-commit leader is inside an
		// unlocked fsync of it.
		s.syncCond.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.poisonedErr()
	}
	if s.inBatch {
		// The snapshot would absorb records whose commit marker is not
		// written yet, silently committing an uncommitted group.
		return errors.New("kvstore: cannot compact inside an open batch")
	}
	if err := s.bw.Flush(); err != nil {
		return s.poison(fmt.Errorf("kvstore: wal flush: %w", err))
	}

	tmp := s.path(snapshotName + ".tmp")
	next := s.epoch + 1
	if err := s.writeSnapshot(tmp, next); err != nil {
		s.fs.Remove(tmp) // best effort; a stray .tmp is harmless
		return err
	}
	if err := s.fs.Rename(tmp, s.path(snapshotName)); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("kvstore: install snapshot: %w", err)
	}
	// The snapshot (epoch e+1) is now installed. From here on any failure
	// poisons the store: the WAL still carries epoch e, so records appended
	// to it would be discarded as stale by the next recovery.
	s.epoch = next
	if err := s.fs.SyncDir(s.dir); err != nil {
		return s.poison(fmt.Errorf("kvstore: sync dir: %w", err))
	}
	if err := s.wal.Truncate(0); err != nil {
		return s.poison(fmt.Errorf("kvstore: reset wal: %w", err))
	}
	if _, err := s.wal.Write(s.walHeader()); err != nil {
		return s.poison(fmt.Errorf("kvstore: reset wal: %w", err))
	}
	if err := s.wal.Sync(); err != nil {
		return s.poison(fmt.Errorf("kvstore: reset wal: %w", err))
	}
	s.bw.Reset(s.wal)
	s.size = int64(walHeaderLen)
	s.durable = s.size
	// The snapshot folded in every applied record — sealed-but-unwaited
	// groups included — so all outstanding durability targets are met.
	s.durableTotal = s.writtenTotal
	s.walStart = int64(walHeaderLen)
	s.legacy = false
	s.compactH.Observe(time.Since(start))
	return nil
}

// walSize reports the current WAL length for the metrics gauge.
func (s *DiskStore) walSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// writeSnapshot writes the full in-memory state to path under epoch.
func (s *DiskStore) writeSnapshot(path string, epoch uint64) error {
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: create snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hdr := make([]byte, snapHeaderLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[len(magic):], epoch)
	if _, err := w.Write(hdr); err != nil {
		f.Close()
		return err
	}
	tables, err := s.mem.Tables()
	if err != nil {
		f.Close()
		return err
	}
	var buf []byte
	for _, t := range tables {
		err := s.mem.Scan(t, func(k string, v []byte) error {
			buf = encodeRecord(buf[:0], opPut, t, k, v)
			_, werr := w.Write(buf)
			return werr
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Close flushes the WAL and closes the store. A poisoned store closes its
// file without flushing (the buffered tail cannot be trusted) and returns
// the original write error.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing {
		// Let an in-flight group fsync finish before the file goes away.
		s.syncCond.Wait()
	}
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.failed != nil {
		first = s.poisonedErr()
	} else {
		if err := s.bw.Flush(); err != nil {
			first = err
		}
		if err := s.wal.Sync(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.wal.Close(); err != nil && first == nil {
		first = err
	}
	s.mem.Close()
	return first
}

var (
	_ Store          = (*DiskStore)(nil)
	_ BatchWriter    = (*DiskStore)(nil)
	_ GroupCommitter = (*DiskStore)(nil)
)
