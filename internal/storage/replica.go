package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"seqlog/internal/kvstore"
)

// Follower-side replication: a read replica receives the primary's WAL batch
// groups (or snapshot chunks during a full resync) as decoded records and
// applies each group atomically to its own store, persisting its replication
// cursor inside the same crash-atomic batch — so after a crash the cursor and
// the data always agree and replay from the cursor is idempotent.

// MetaTable is the kv table backing PutMeta/GetMeta. Exported so replication
// consumers (the engine's follower hook) can recognise shipped records that
// touch engine metadata — the interned alphabet above all — and refresh their
// in-memory copies.
const MetaTable = tableMeta

// MetaSegmentKey is the meta key holding the installed segment file's name.
// A follower that sees a shipped put of this key must stage the named file
// before applying the group.
const MetaSegmentKey = metaSegmentKey

// ReplicaCursorKey is the meta-table key where a follower persists its
// replication cursor. The key is follower-local: shipped records that touch
// it are skipped, so replicating from a promoted ex-follower cannot clobber
// the local cursor.
const ReplicaCursorKey = "replica.cursor"

// ErrBadReplicaGroup reports a shipped record group the follower cannot
// apply: batch markers inside the group or an unknown operation. It means a
// protocol bug, not data corruption on either side.
var ErrBadReplicaGroup = errors.New("storage: bad replicated record group")

// ReplicaCursor returns the persisted replication cursor, if any.
func (t *Tables) ReplicaCursor() ([]byte, bool, error) {
	return t.store.Get(tableMeta, ReplicaCursorKey)
}

// ApplyReplicated applies one shipped record group — a committed WAL batch
// group, a bare record, or a snapshot-resync chunk — atomically together with
// the new cursor value, then refreshes the derived in-memory state (postings
// cache, period list, segment reference, tombstones) so queries on the
// follower observe the group exactly as the primary's queries did after its
// commit. Records must not contain batch markers; the group boundary IS the
// batch. Records must own their bytes (no aliasing of a reused buffer).
//
// If the group installs a segment reference (a meta put of the segment key),
// the segment file must already be staged in the segment directory (see
// StageSegment); it is opened and validated before anything is written, so a
// missing or corrupt file leaves the store untouched.
//
// The caller must serialise calls (one applier goroutine); readers are safe
// concurrently and stall only for the final reference switch.
func (t *Tables) ApplyReplicated(recs []kvstore.Record, cursor []byte) error {
	// Pre-scan: which derived state does this group touch?
	var (
		segSwitch      bool   // a metaSegmentKey put (or delete) is in the group
		newSegName     string // "" = reference removed
		tombsChange    bool
		periodsTouched bool
	)
	for _, r := range recs {
		switch r.Op {
		case kvstore.OpPut, kvstore.OpAppend, kvstore.OpDelete, kvstore.OpDropTable:
		default:
			return fmt.Errorf("%w: op %d", ErrBadReplicaGroup, r.Op)
		}
		switch {
		case r.Table == tableMeta && r.Key == metaSegmentKey:
			segSwitch = true
			if r.Op == kvstore.OpPut {
				newSegName = string(r.Value)
			} else {
				newSegName = ""
			}
		case r.Table == tableMeta && r.Key == metaSegDroppedKey:
			tombsChange = true
		case r.Table == tablePeriods || r.Op == kvstore.OpDropTable:
			periodsTouched = true
		}
	}

	// Validate the incoming segment before any write: a failure here must
	// leave the follower exactly where it was.
	var newSeg *segment
	if segSwitch && newSegName != "" {
		if t.segCfg == nil {
			return fmt.Errorf("%w: group references segment %q but segments are disabled", ErrBadReplicaGroup, newSegName)
		}
		seg, err := openSegment(t.segCfg.fs, t.segCfg.dir, newSegName)
		if err != nil {
			return fmt.Errorf("storage: replicated segment %q not applicable: %w", newSegName, err)
		}
		newSeg = seg
	}

	t.segMu.Lock()
	defer t.segMu.Unlock()
	err := kvstore.Atomically(t.store, func() error {
		for _, r := range recs {
			if r.Table == tableMeta && r.Key == ReplicaCursorKey {
				continue // another replica's cursor; ours is authoritative
			}
			var err error
			switch r.Op {
			case kvstore.OpPut:
				err = t.store.Put(r.Table, r.Key, r.Value)
			case kvstore.OpAppend:
				err = t.store.Append(r.Table, r.Key, r.Value)
			case kvstore.OpDelete:
				err = t.store.Delete(r.Table, r.Key)
			case kvstore.OpDropTable:
				err = t.store.DropTable(r.Table)
			}
			if err != nil {
				return err
			}
		}
		return t.store.Put(tableMeta, ReplicaCursorKey, cursor)
	})
	if err != nil {
		if newSeg != nil {
			newSeg.close()
		}
		return err
	}

	// The group is durable; swap the derived in-memory state to match, the
	// same refresh OpenTables would perform.
	if segSwitch {
		oldName := ""
		if t.seg != nil {
			oldName = t.seg.name
			t.retired = append(t.retired, t.seg)
		}
		t.seg = newSeg
		t.segTomb = nil
		tombsChange = true // reload below (the switch usually clears them)
		if oldName != "" && oldName != newSegName && t.segCfg != nil {
			t.segCfg.fs.Remove(filepath.Join(t.segCfg.dir, oldName))
		}
	}
	if tombsChange {
		tomb, err := t.loadTombstones()
		if err != nil {
			return err
		}
		t.segTomb = tomb
	}
	if periodsTouched {
		t.pmu.Lock()
		t.periods, t.periodsLoaded = nil, false
		t.pmu.Unlock()
	}
	t.cache.sweep(func(cacheKey) bool { return true })
	return nil
}

// loadTombstones re-reads the persisted segment-tombstone set.
func (t *Tables) loadTombstones() (map[string]bool, error) {
	raw, ok, err := t.store.Get(tableMeta, metaSegDroppedKey)
	if err != nil || !ok || len(raw) == 0 {
		return nil, err
	}
	var dropped []string
	if jerr := json.Unmarshal(raw, &dropped); jerr != nil {
		return nil, fmt.Errorf("%w: bad tombstone list: %v", ErrCorrupt, jerr)
	}
	tomb := make(map[string]bool, len(dropped))
	for _, p := range dropped {
		tomb[p] = true
	}
	return tomb, nil
}

// DropAllForResync clears every table of the store — the first step of a
// snapshot-based full resync after the primary's log was compacted past the
// follower's cursor. The drops and the new cursor commit as one crash-atomic
// batch, so a crash leaves either the old replica state or an empty store
// whose cursor says "resyncing from offset zero"; it never mixes old rows
// into the incoming snapshot. The in-memory segment reference is dropped too
// (the snapshot stream re-installs one if the primary has it).
func (t *Tables) DropAllForResync(cursor []byte) error {
	tables, err := t.store.Tables()
	if err != nil {
		return err
	}
	recs := make([]kvstore.Record, 0, len(tables))
	for _, tb := range tables {
		recs = append(recs, kvstore.Record{Op: kvstore.OpDropTable, Table: tb})
	}
	return t.ApplyReplicated(recs, cursor)
}

// StageSegment durably writes one segment file into the segment directory
// (temp file + fsync + rename + directory fsync) so a subsequent
// ApplyReplicated can install the reference. Staging an already-present
// segment of the same name is a no-op: segment files are immutable and
// content-addressed by sequence number. The name is validated against the
// segment naming scheme, so a malicious primary cannot escape the directory.
func (t *Tables) StageSegment(name string, data io.Reader) error {
	if t.segCfg == nil {
		return ErrSegmentsDisabled
	}
	if _, ok := parseSegName(name); !ok {
		return fmt.Errorf("%w: bad segment name %q", ErrCorruptSegment, name)
	}
	if _, err := t.segCfg.fs.Stat(filepath.Join(t.segCfg.dir, name)); err == nil {
		return nil
	}
	return installFile(t.segCfg.fs, t.segCfg.dir, name, data)
}

// HasSegment reports whether a segment file is already staged.
func (t *Tables) HasSegment(name string) bool {
	if t.segCfg == nil {
		return false
	}
	if _, ok := parseSegName(name); !ok {
		return false
	}
	_, err := t.segCfg.fs.Stat(filepath.Join(t.segCfg.dir, name))
	return err == nil
}

// SegmentFileSize returns the byte size of a staged segment file — the
// primary side of segment shipping. The name is validated against the naming
// scheme before touching the filesystem.
func (t *Tables) SegmentFileSize(name string) (int64, error) {
	if t.segCfg == nil {
		return 0, ErrSegmentsDisabled
	}
	if _, ok := parseSegName(name); !ok {
		return 0, fmt.Errorf("%w: bad segment name %q", ErrCorruptSegment, name)
	}
	fi, err := t.segCfg.fs.Stat(filepath.Join(t.segCfg.dir, name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ReadSegmentAt copies bytes of a staged segment file from [off, off+len(p))
// into p, returning io.EOF semantics like File.ReadAt. Segment files are
// immutable, so no locking against writers is needed.
func (t *Tables) ReadSegmentAt(name string, off int64, p []byte) (int, error) {
	if t.segCfg == nil {
		return 0, ErrSegmentsDisabled
	}
	if _, ok := parseSegName(name); !ok {
		return 0, fmt.Errorf("%w: bad segment name %q", ErrCorruptSegment, name)
	}
	f, err := t.segCfg.fs.OpenFile(filepath.Join(t.segCfg.dir, name), os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.ReadAt(p, off)
}

// CurrentSegmentName returns the name of the installed segment ("" when
// none) — what a freshly resyncing follower must stage before applying the
// reference.
func (t *Tables) CurrentSegmentName() string {
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	if t.seg == nil {
		return ""
	}
	return t.seg.name
}
