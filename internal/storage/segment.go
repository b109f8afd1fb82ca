package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
)

// Immutable postings segments. FreezePostings folds the memtable tier (the
// kvstore index rows, replayed from the WAL on recovery) into one segment
// file holding every pair's block-compressed run, then drops the rows from
// the kvstore — capping both recovery replay time and snapshot size. A store
// references at most one segment at a time (the "segment" meta key); a new
// freeze merges the old segment with the memtable tail and atomically
// switches the reference.
//
// File layout:
//
//	magic "seqseg01"                          (8 bytes)
//	run blobs, back to back                   (block streams, see block.go)
//	directory:
//	    uvarint rowCount
//	    per row, sorted by (period, pair):
//	        uvarint len(period), period bytes
//	        8-byte big-endian pair key
//	        uvarint blob offset (absolute)
//	        uvarint blob length
//	        uvarint entry count
//	trailer                                   (24 bytes)
//	    8-byte BE directory offset
//	    8-byte BE directory length
//	    4-byte BE CRC32 (IEEE) of bytes [0, dirOff+dirLen)
//	    magic "sgT1"
//
// Segments are written to a temp file, fsynced, renamed into place and the
// directory fsynced — the same atomic-install discipline the kvstore snapshot
// uses — so a crash mid-write leaves at worst an unreferenced stray file,
// cleaned up on the next open. Corruption of a referenced segment (the CRC or
// structure check failing) is bitrot, never a crash artifact, and surfaces as
// ErrCorruptSegment.

const (
	segMagic     = "seqseg01"
	segTailMagic = "sgT1"
	segTrailer   = 8 + 8 + 4 + 4

	// segPrefix/segSuffix frame segment file names: seg-<seq>.seg.
	segPrefix = "seg-"
	segSuffix = ".seg"

	// currentFormat is the newest on-disk format this build understands. A
	// store without the "format" meta key is format 1 (plain rows, no
	// segment); format 2 adds the segment tier. Stores report a higher
	// format fail to open with ErrFutureFormat instead of misreading data.
	currentFormat = 2
)

// Meta keys of the segment lifecycle (in the store's meta table, so the
// reference switch rides the WAL's crash-atomic batches).
const (
	metaFormatKey     = "format"
	metaSegmentKey    = "segment"
	metaSegDroppedKey = "segdropped"
)

var (
	// ErrCorruptSegment reports a referenced segment file that no longer
	// decodes — bitrot or external modification, never a crash artifact
	// (unreferenced partial segments are cleaned up silently).
	ErrCorruptSegment = errors.New("storage: corrupt segment file")

	// ErrFutureFormat reports a store written by a newer version of this
	// software; opening it read-write could destroy data the newer format
	// encodes. The store is left untouched.
	ErrFutureFormat = errors.New("storage: store uses a newer on-disk format")

	// ErrSegmentsDisabled reports a FreezePostings call on tables opened
	// without a segment directory.
	ErrSegmentsDisabled = errors.New("storage: segments not configured (no segment directory)")
)

// segRow is one directory entry: the blob of (period, pair).
type segRow struct {
	period  string
	pair    model.PairKey
	off     int
	blen    int
	entries int
}

// segment is one open immutable segment file. The data slice is either a
// read-only mmap (OSFS) or a heap copy (fault-injected filesystems); it is
// never unmapped while the segment may have readers — retired segments stay
// mapped until the tables close.
type segment struct {
	name    string
	seq     uint64
	data    []byte
	unmap   func() // nil when data is heap-allocated
	rows    []segRow
	metas   [][]BlockMeta // skip headers per row, decoded once at open
	byKey   map[segKey]int
	periods map[string]int // rows per period
	entries int64
}

// segKey addresses one run inside a segment.
type segKey struct {
	period string
	pair   model.PairKey
}

func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	var seq uint64
	digits := name[len(segPrefix) : len(name)-len(segSuffix)]
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// openSegment maps (or reads) and validates a segment file.
func openSegment(fs kvstore.FS, dir, name string) (*segment, error) {
	seq, ok := parseSegName(name)
	if !ok {
		return nil, fmt.Errorf("%w: bad segment name %q", ErrCorruptSegment, name)
	}
	path := filepath.Join(dir, name)
	var (
		data  []byte
		unmap func()
	)
	if fs == kvstore.OSFS {
		if m, un, err := mmapFile(path); err == nil {
			data, unmap = m, un
		}
	}
	if data == nil && unmap == nil {
		b, err := fs.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("storage: read segment %s: %w", name, err)
		}
		data = b
	}
	s := &segment{name: name, seq: seq, data: data, unmap: unmap}
	if err := s.parse(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *segment) parse() error {
	d := s.data
	if len(d) < len(segMagic)+segTrailer || string(d[:len(segMagic)]) != segMagic {
		return fmt.Errorf("%w: %s: bad header", ErrCorruptSegment, s.name)
	}
	tr := d[len(d)-segTrailer:]
	if string(tr[20:24]) != segTailMagic {
		return fmt.Errorf("%w: %s: bad trailer", ErrCorruptSegment, s.name)
	}
	dirOff := binary.BigEndian.Uint64(tr[0:8])
	dirLen := binary.BigEndian.Uint64(tr[8:16])
	// Bound each field before summing: values near 2^64 would wrap dirOff+dirLen
	// into range and send a negative int into the slice below.
	dirEnd := uint64(len(d) - segTrailer)
	if dirOff < uint64(len(segMagic)) || dirOff > dirEnd || dirLen != dirEnd-dirOff {
		return fmt.Errorf("%w: %s: bad directory bounds", ErrCorruptSegment, s.name)
	}
	if crc32.ChecksumIEEE(d[:dirOff+dirLen]) != binary.BigEndian.Uint32(tr[16:20]) {
		return fmt.Errorf("%w: %s: checksum mismatch", ErrCorruptSegment, s.name)
	}
	r := &reader{buf: d[dirOff : dirOff+dirLen]}
	n, err := r.uvarint()
	if err != nil || n > dirLen {
		return fmt.Errorf("%w: %s: bad directory", ErrCorruptSegment, s.name)
	}
	s.rows = make([]segRow, 0, n)
	s.byKey = make(map[segKey]int, n)
	s.periods = make(map[string]int)
	for i := uint64(0); i < n; i++ {
		plen, err := r.uvarint()
		if err != nil || plen > uint64(len(r.buf)-r.off) {
			return fmt.Errorf("%w: %s: bad directory", ErrCorruptSegment, s.name)
		}
		period := string(r.buf[r.off : r.off+int(plen)])
		r.off += int(plen)
		if len(r.buf)-r.off < 8 {
			return fmt.Errorf("%w: %s: bad directory", ErrCorruptSegment, s.name)
		}
		pair := model.PairKey(binary.BigEndian.Uint64(r.buf[r.off : r.off+8]))
		r.off += 8
		off, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: %s: bad directory", ErrCorruptSegment, s.name)
		}
		blen, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: %s: bad directory", ErrCorruptSegment, s.name)
		}
		cnt, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("%w: %s: bad directory", ErrCorruptSegment, s.name)
		}
		if off < uint64(len(segMagic)) || off > dirOff || blen > dirOff-off {
			return fmt.Errorf("%w: %s: blob out of bounds", ErrCorruptSegment, s.name)
		}
		row := segRow{period: period, pair: pair, off: int(off), blen: int(blen), entries: int(cnt)}
		k := segKey{period: period, pair: pair}
		if _, dup := s.byKey[k]; dup {
			return fmt.Errorf("%w: %s: duplicate row", ErrCorruptSegment, s.name)
		}
		s.byKey[k] = len(s.rows)
		s.rows = append(s.rows, row)
		s.periods[period]++
		s.entries += int64(cnt)
	}
	// Decode every row's skip headers once: O(blocks), no payload bytes
	// touched. This also validates the header structure at open, so a
	// corrupt segment fails fast instead of mid-query.
	s.metas = make([][]BlockMeta, len(s.rows))
	for i, row := range s.rows {
		metas, err := decodeBlockMetas(s.data[row.off : row.off+row.blen])
		if err != nil {
			return fmt.Errorf("%w: %s: row %d: %v", ErrCorruptSegment, s.name, i, err)
		}
		total := 0
		for _, m := range metas {
			total += m.Count
		}
		if total != row.entries {
			return fmt.Errorf("%w: %s: row %d entry count mismatch", ErrCorruptSegment, s.name, i)
		}
		s.metas[i] = metas
	}
	return nil
}

func (s *segment) close() {
	if s.unmap != nil {
		s.unmap()
		s.unmap = nil
	}
	s.data = nil
}

// row looks up the blob of (period, pair); ok is false when the segment holds
// no postings for it.
func (s *segment) row(period string, pair model.PairKey) (segRow, bool) {
	if s == nil {
		return segRow{}, false
	}
	i, ok := s.byKey[segKey{period: period, pair: pair}]
	if !ok {
		return segRow{}, false
	}
	return s.rows[i], true
}

func (s *segment) blob(r segRow) []byte { return s.data[r.off : r.off+r.blen] }

// segRowData is one pending row of a segment being written.
type segRowData struct {
	period  string
	pair    model.PairKey
	blob    []byte
	entries int
}

// writeSegmentFile atomically installs a segment: temp file, fsync, rename,
// directory fsync. Rows must be sorted by (period, pair).
func writeSegmentFile(fs kvstore.FS, dir, name string, rows []segRowData) error {
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, segMagic...)
	offs := make([]int, len(rows))
	for i, r := range rows {
		offs[i] = len(buf)
		buf = append(buf, r.blob...)
	}
	dirOff := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for i, r := range rows {
		buf = binary.AppendUvarint(buf, uint64(len(r.period)))
		buf = append(buf, r.period...)
		var pk [8]byte
		binary.BigEndian.PutUint64(pk[:], uint64(r.pair))
		buf = append(buf, pk[:]...)
		buf = binary.AppendUvarint(buf, uint64(offs[i]))
		buf = binary.AppendUvarint(buf, uint64(len(r.blob)))
		buf = binary.AppendUvarint(buf, uint64(r.entries))
	}
	dirLen := len(buf) - dirOff
	crc := crc32.ChecksumIEEE(buf)
	var tr [segTrailer]byte
	binary.BigEndian.PutUint64(tr[0:8], uint64(dirOff))
	binary.BigEndian.PutUint64(tr[8:16], uint64(dirLen))
	binary.BigEndian.PutUint32(tr[16:20], crc)
	copy(tr[20:24], segTailMagic)
	buf = append(buf, tr[:]...)
	if err := installFile(fs, dir, name, bytes.NewReader(buf)); err != nil {
		return fmt.Errorf("storage: install segment: %w", err)
	}
	return nil
}

// installFile durably writes data as dir/name: a temp file, fsynced, renamed
// into place, then the directory fsynced. A crash leaves the old state or
// the whole file, at worst beside a stray temp file cleanSegmentDir removes.
func installFile(fs kvstore.FS, dir, name string, data io.Reader) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = io.Copy(f, data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}

// cleanSegmentDir removes stray segment files — leftovers of a freeze that
// crashed before committing its reference switch. Best effort: the strays are
// unreferenced, so failing to remove them is harmless. Goes through the
// injected FS so fault-injection tests observe and exercise the cleanup.
func cleanSegmentDir(fs kvstore.FS, dir string, keep string) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if name == keep || e.IsDir() {
			continue
		}
		if _, ok := parseSegName(name); ok || strings.HasSuffix(name, ".tmp") {
			fs.Remove(filepath.Join(dir, name))
		}
	}
}

// SegmentStats describes the immutable postings tier.
type SegmentStats struct {
	// Segments is the number of live segment files (0 or 1 per store; summed
	// across shards).
	Segments int `json:"segments"`
	// Rows is the number of (period, pair) runs held in segments.
	Rows int64 `json:"rows"`
	// Entries is the number of postings entries held in segments.
	Entries int64 `json:"entries"`
	// Bytes is the total on-disk size of live segments.
	Bytes int64 `json:"bytes"`
	// Freezes counts FreezePostings runs that produced a new segment since
	// open.
	Freezes int64 `json:"freezes"`
}

// sortSegRowData orders pending rows by (period, pair) — the directory order
// openSegment expects and the deterministic order the differential tests pin.
func sortSegRowData(rows []segRowData) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].period != rows[j].period {
			return rows[i].period < rows[j].period
		}
		return rows[i].pair < rows[j].pair
	})
}
