package storage

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

// Options configures OpenTables beyond the plain NewTables constructor.
type Options struct {
	// SegmentDir, when non-empty, enables the immutable-segment tier:
	// FreezePostings writes block-compressed segment files there, and a
	// store referencing a segment loads it from there. Empty disables
	// segments; opening a store that references one then fails.
	SegmentDir string
	// FS abstracts filesystem access for segment files (fault-injection
	// tests); nil uses the real filesystem.
	FS kvstore.FS
}

// OpenTables wraps a store with segment support. It enforces the on-disk
// format guard (a store stamped with a newer format than this build
// understands fails with ErrFutureFormat), loads the referenced segment if
// one exists, and removes stray segment files left by an interrupted freeze.
// Stores without segment metadata open exactly as NewTables does.
func OpenTables(store kvstore.Store, opts Options) (*Tables, error) {
	t := NewTables(store)
	raw, ok, err := store.Get(tableMeta, metaFormatKey)
	if err != nil {
		return nil, err
	}
	if ok {
		v, perr := strconv.Atoi(string(raw))
		if perr != nil || v > currentFormat {
			return nil, fmt.Errorf("%w: store reports format %q, this build understands <= %d",
				ErrFutureFormat, raw, currentFormat)
		}
	}
	if opts.SegmentDir != "" {
		fs := opts.FS
		if fs == nil {
			fs = kvstore.OSFS
		}
		if err := fs.MkdirAll(opts.SegmentDir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: segment dir: %w", err)
		}
		t.segCfg = &segmentConfig{dir: opts.SegmentDir, fs: fs}
	}
	raw, ok, err = store.Get(tableMeta, metaSegmentKey)
	if err != nil {
		return nil, err
	}
	if ok {
		if t.segCfg == nil {
			return nil, fmt.Errorf("storage: store references segment %q but no segment directory was configured", raw)
		}
		seg, err := openSegment(t.segCfg.fs, t.segCfg.dir, string(raw))
		if err != nil {
			return nil, err
		}
		t.seg = seg
	}
	if t.segCfg != nil {
		keep := ""
		if t.seg != nil {
			keep = t.seg.name
		}
		cleanSegmentDir(t.segCfg.fs, t.segCfg.dir, keep)
	}
	if t.segTomb, err = t.loadTombstones(); err != nil {
		return nil, err
	}
	return t, nil
}

// segmentConfig is the segment-tier location of one Tables instance.
type segmentConfig struct {
	dir string
	fs  kvstore.FS
}

// Close releases the segment mappings (current and retired). Callers must
// guarantee no query is still reading postings; the underlying store is NOT
// closed. Safe on tables without segments.
func (t *Tables) Close() error {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	if t.seg != nil {
		t.seg.close()
		t.seg = nil
	}
	for _, s := range t.retired {
		s.close()
	}
	t.retired = nil
	return nil
}

// SegmentStats reports the immutable-tier shape.
func (t *Tables) SegmentStats() SegmentStats {
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	st := SegmentStats{Freezes: t.freezes.Load()}
	if t.seg != nil {
		st.Segments = 1
		st.Rows = int64(len(t.seg.rows))
		st.Entries = t.seg.entries
		st.Bytes = int64(len(t.seg.data))
	}
	return st
}

// FreezePostings folds every inverted-index row — the current segment merged
// with the memtable tier — into a fresh segment file, then atomically
// switches the store's reference to it and drops the rows from the kvstore
// (one crash-atomic WAL batch), so the next compaction shrinks the snapshot
// to metadata and recovery stops replaying postings. Periods tombstoned by
// DropPeriod are left out of the new segment and their tombstones cleared.
//
// Callers must exclude concurrent writers (the engine freezes under its
// ingest lock); concurrent readers are safe and stall only for the final
// reference switch. A crash at any byte leaves either the old state (the new
// file is an unreferenced stray, cleaned at open) or the new one — never a
// mix, and never data loss: until the WAL batch commits, every entry is
// still in the kvstore tier.
//
// A freeze with nothing new to fold (empty memtable tier, no tombstones) is
// a no-op. Tables opened without a segment directory return
// ErrSegmentsDisabled.
func (t *Tables) FreezePostings() error {
	if t.segCfg == nil {
		return ErrSegmentsDisabled
	}
	// Reentrancy guard: committing the switch syncs the WAL, which may
	// trigger the store's auto-compaction hook, which calls back into
	// FreezePostings. The inner call must be a no-op, not a deadlock.
	if !t.freezing.CompareAndSwap(false, true) {
		return nil
	}
	defer t.freezing.Store(false)
	t.freezeMu.Lock()
	defer t.freezeMu.Unlock()

	t.segMu.RLock()
	seg := t.seg // only FreezePostings replaces it, and freezeMu is held
	t.segMu.RUnlock()
	tomb := t.tombstoneSnapshot()
	periods, err := t.periodsShared()
	if err != nil {
		return err
	}
	partitions := append([]string{""}, periods...)

	var (
		rows        []segRowData
		dropTables  []string
		tailEntries int
	)
	for _, p := range partitions {
		tails := make(map[model.PairKey][]IndexEntry)
		err := t.scanTails(p, func(pair model.PairKey, entries []IndexEntry) error {
			sortIndexEntries(entries)
			tails[pair] = entries
			tailEntries += len(entries)
			return nil
		})
		if err != nil {
			return err
		}
		if len(tails) > 0 {
			dropTables = append(dropTables, indexTable(p))
		}
		// Pairs present only in the old segment carry over unchanged.
		if seg != nil && !tomb[p] {
			for _, ri := range segRowsOfPeriod(seg, p) {
				row := seg.rows[ri]
				old, derr := newBlockRun(t, seg, ri).All()
				if derr != nil {
					return derr
				}
				if tail, ok := tails[row.pair]; ok {
					merged := mergeSortedEntries([][]IndexEntry{old, tail})
					rows = append(rows, segRowData{period: p, pair: row.pair, blob: encodePostingsBlocks(nil, merged), entries: len(merged)})
					delete(tails, row.pair)
				} else {
					rows = append(rows, segRowData{period: p, pair: row.pair, blob: append([]byte(nil), seg.blob(row)...), entries: row.entries})
				}
			}
		}
		for pair, tail := range tails {
			rows = append(rows, segRowData{period: p, pair: pair, blob: encodePostingsBlocks(nil, tail), entries: len(tail)})
		}
	}
	if tailEntries == 0 && len(tomb) == 0 {
		return nil // nothing new since the last freeze
	}
	sortSegRowData(rows)

	var seq uint64 = 1
	oldName := ""
	if seg != nil {
		seq = seg.seq + 1
		oldName = seg.name
	}
	name := segName(seq)
	if err := writeSegmentFile(t.segCfg.fs, t.segCfg.dir, name, rows); err != nil {
		return err
	}
	newSeg, err := openSegment(t.segCfg.fs, t.segCfg.dir, name)
	if err != nil {
		t.segCfg.fs.Remove(filepath.Join(t.segCfg.dir, name))
		return err
	}

	// The switch: new reference + row drop in one crash-atomic batch, readers
	// held off so they never observe "segment swapped, rows still present"
	// or the reverse.
	t.segMu.Lock()
	if err := t.commitSegmentSwitch(name, dropTables); err != nil {
		t.segMu.Unlock()
		newSeg.close()
		t.segCfg.fs.Remove(filepath.Join(t.segCfg.dir, name))
		return err
	}
	if t.seg != nil {
		t.retired = append(t.retired, t.seg)
	}
	t.seg = newSeg
	t.segTomb = nil
	if t.cache != nil {
		t.cache.invalidateAll()
	}
	t.freezes.Add(1)
	t.segMu.Unlock()

	if oldName != "" {
		// Best effort: the old file is unreferenced now; a leftover is
		// removed by cleanSegmentDir on the next open.
		t.segCfg.fs.Remove(filepath.Join(t.segCfg.dir, oldName))
	}
	return nil
}

// commitSegmentSwitch persists the reference switch: point the store at the
// new segment, stamp the format, clear tombstones and drop the folded index
// tables, in one crash-atomic batch.
func (t *Tables) commitSegmentSwitch(name string, dropTables []string) error {
	return kvstore.Atomically(t.store, func() error {
		if err := t.store.Put(tableMeta, metaSegmentKey, []byte(name)); err != nil {
			return err
		}
		if err := t.store.Put(tableMeta, metaFormatKey, []byte(strconv.Itoa(currentFormat))); err != nil {
			return err
		}
		if err := t.store.Delete(tableMeta, metaSegDroppedKey); err != nil {
			return err
		}
		for _, tb := range dropTables {
			if err := t.store.DropTable(tb); err != nil {
				return err
			}
		}
		return nil
	})
}

// segRowsOfPeriod returns the indices of the segment's rows in one period,
// in directory (pair) order.
func segRowsOfPeriod(s *segment, period string) []int {
	if s.periods[period] == 0 {
		return nil
	}
	out := make([]int, 0, s.periods[period])
	for i, r := range s.rows {
		if r.period == period {
			out = append(out, i)
		}
	}
	return out
}

// tombstoneSnapshot copies the live tombstone set.
func (t *Tables) tombstoneSnapshot() map[string]bool {
	t.segMu.RLock()
	defer t.segMu.RUnlock()
	if len(t.segTomb) == 0 {
		return nil
	}
	out := make(map[string]bool, len(t.segTomb))
	for p := range t.segTomb {
		out[p] = true
	}
	return out
}

// encodeTombstones serialises the tombstone set plus one more period.
func (t *Tables) encodeTombstones(period string) []byte {
	list := make([]string, 0, len(t.segTomb)+1)
	for p := range t.segTomb {
		list = append(list, p)
	}
	list = append(list, period)
	sort.Strings(list)
	enc, _ := json.Marshal(list) // a []string cannot fail to marshal
	return enc
}
