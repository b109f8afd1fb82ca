package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// openers enumerates the engines so every behavioural test runs on both.
func openers(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore() },
		"disk": func() Store {
			s, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatalf("OpenDisk: %v", err)
			}
			return s
		},
	}
}

func TestStoreBasicOps(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()

			if _, ok, err := s.Get("tab", "missing"); err != nil || ok {
				t.Fatalf("Get missing: ok=%v err=%v", ok, err)
			}
			if err := s.Put("tab", "k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get("tab", "k")
			if err != nil || !ok || string(v) != "v1" {
				t.Fatalf("Get after Put: %q %v %v", v, ok, err)
			}
			if err := s.Put("tab", "k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if v, _, _ := s.Get("tab", "k"); string(v) != "v2" {
				t.Fatalf("Put did not replace: %q", v)
			}
			if err := s.Append("tab", "k", []byte("+x")); err != nil {
				t.Fatal(err)
			}
			if v, _, _ := s.Get("tab", "k"); string(v) != "v2+x" {
				t.Fatalf("Append: %q", v)
			}
			if err := s.Append("tab", "fresh", []byte("ab")); err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := s.Get("tab", "fresh"); !ok || string(v) != "ab" {
				t.Fatalf("Append to fresh key: %q %v", v, ok)
			}
			if err := s.Delete("tab", "k"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get("tab", "k"); ok {
				t.Fatal("Delete left key behind")
			}
			if err := s.Delete("tab", "never-existed"); err != nil {
				t.Fatalf("Delete absent: %v", err)
			}
			if n, err := s.Len("tab"); err != nil || n != 1 {
				t.Fatalf("Len = %d, %v", n, err)
			}
		})
	}
}

func TestStoreTablesAreIsolated(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			s.Put("t1", "k", []byte("a"))
			s.Put("t2", "k", []byte("b"))
			v1, _, _ := s.Get("t1", "k")
			v2, _, _ := s.Get("t2", "k")
			if string(v1) != "a" || string(v2) != "b" {
				t.Fatalf("tables leak: %q %q", v1, v2)
			}
			tabs, err := s.Tables()
			if err != nil || !reflect.DeepEqual(tabs, []string{"t1", "t2"}) {
				t.Fatalf("Tables = %v, %v", tabs, err)
			}
			if err := s.DropTable("t1"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get("t1", "k"); ok {
				t.Fatal("DropTable left data")
			}
			if _, ok, _ := s.Get("t2", "k"); !ok {
				t.Fatal("DropTable removed wrong table")
			}
		})
	}
}

func TestStoreScan(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			want := map[string]string{}
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%03d", i)
				v := fmt.Sprintf("val-%03d", i)
				want[k] = v
				if err := s.Put("t", k, []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			got := map[string]string{}
			err := s.Scan("t", func(k string, v []byte) error {
				got[k] = string(v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scan mismatch: got %d keys want %d", len(got), len(want))
			}
			// Scan of an absent table is a no-op.
			if err := s.Scan("absent", func(string, []byte) error { t.Fatal("called"); return nil }); err != nil {
				t.Fatal(err)
			}
			// Early stop propagates the error.
			boom := errors.New("stop")
			if err := s.Scan("t", func(string, []byte) error { return boom }); !errors.Is(err, boom) {
				t.Fatalf("scan early stop: %v", err)
			}
		})
	}
}

func TestStoreConcurrentAppend(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			const workers, per = 8, 100
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := s.Append("t", "shared", []byte{1}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			v, _, _ := s.Get("t", "shared")
			if len(v) != workers*per {
				t.Fatalf("lost appends: %d != %d", len(v), workers*per)
			}
		})
	}
}

func TestMemStoreClosed(t *testing.T) {
	s := NewMemStore()
	s.Close()
	if err := s.Put("t", "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed: %v", err)
	}
	if _, _, err := s.Get("t", "k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed: %v", err)
	}
	if _, err := s.Tables(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Tables on closed: %v", err)
	}
}

// TestMemStoreBatchRoundTrip: the in-memory group methods are the same
// contract writers drive on disk — a committed group's writes are readable,
// and an aborted group (AbortBatch directly, or through Atomically) leaves the
// store usable for the next group rather than poisoned.
func TestMemStoreBatchRoundTrip(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	err := Atomically(s, func() error { return s.Put("t", "k", []byte("v1")) })
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = Atomically(s, func() error {
		if err := s.Put("t", "k2", []byte("x")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Atomically = %v, want the apply error", err)
	}
	if err := s.BeginBatch(); err != nil {
		t.Fatalf("BeginBatch after abort: %v", err)
	}
	if err := s.Append("t", "k", []byte("+v2")); err != nil {
		t.Fatalf("write after abort: %v", err)
	}
	if err := s.CommitBatch(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s.Get("t", "k"); err != nil || !ok || string(v) != "v1+v2" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
}

func TestMemStorePutCopiesValue(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	buf := []byte("abc")
	s.Put("t", "k", buf)
	buf[0] = 'Z'
	v, _, _ := s.Get("t", "k")
	if string(v) != "abc" {
		t.Fatalf("stored value aliases caller buffer: %q", v)
	}
}

func TestDiskStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("t", "a", []byte("1"))
	s.Append("t", "a", []byte("2"))
	s.Put("t", "b", []byte("x"))
	s.Delete("t", "b")
	s.Put("drop-me", "k", []byte("y"))
	s.DropTable("drop-me")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, _ := s2.Get("t", "a")
	if !ok || string(v) != "12" {
		t.Fatalf("recovered a = %q ok=%v", v, ok)
	}
	if _, ok, _ := s2.Get("t", "b"); ok {
		t.Fatal("deleted key resurrected")
	}
	if _, ok, _ := s2.Get("drop-me", "k"); ok {
		t.Fatal("dropped table resurrected")
	}
}

func TestDiskStoreRecoveryAfterCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Put("t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Put("t", "after", []byte("compaction"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.Len("t"); n != 101 {
		t.Fatalf("recovered %d keys, want 101", n)
	}
	if v, _, _ := s2.Get("t", "k42"); string(v) != "v42" {
		t.Fatalf("k42 = %q", v)
	}
	if v, _, _ := s2.Get("t", "after"); string(v) != "compaction" {
		t.Fatalf("after = %q", v)
	}
}

func TestDiskStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("t", "good", []byte("ok"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append garbage bytes to the WAL.
	f, err := os.OpenFile(filepath.Join(dir, "WAL"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 9, 9, 9, 9})
	f.Close()

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("recovery with torn tail failed: %v", err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get("t", "good"); !ok || string(v) != "ok" {
		t.Fatalf("good record lost: %q %v", v, ok)
	}
	// The store must still be writable and re-recoverable after truncation.
	s2.Put("t", "more", []byte("data"))
	s2.Close()
	s3, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, _, _ := s3.Get("t", "more"); string(v) != "data" {
		t.Fatalf("post-truncation write lost: %q", v)
	}
}

func TestDiskStoreAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.CompactAt = 1024
	payload := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 20; i++ {
		s.Put("t", fmt.Sprintf("k%d", i), payload)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(filepath.Join(dir, "WAL"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 2048 {
		t.Fatalf("WAL never compacted: %d bytes", st.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "SNAPSHOT")); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	s.Close()
	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.Len("t"); n != 20 {
		t.Fatalf("recovered %d keys, want 20", n)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(op byte, table, key string, value []byte) bool {
		if op == 0 {
			op = 1
		}
		rec := encodeRecord(nil, op, table, key, value)
		gotOp, gotTable, gotKey, gotValue, next, err := decodeRecordAt(rec, 0)
		if err != nil || next != len(rec) {
			return false
		}
		return gotOp == op && gotTable == table && gotKey == key && bytes.Equal(gotValue, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// layoutRecord is the WAL record layout spelled out field by field: the
// payload built on its own, then the checksum and length header in front.
func layoutRecord(op byte, table, key string, value []byte) []byte {
	payload := []byte{op}
	payload = binary.AppendUvarint(payload, uint64(len(table)))
	payload = append(payload, table...)
	payload = binary.AppendUvarint(payload, uint64(len(key)))
	payload = append(payload, key...)
	payload = binary.AppendUvarint(payload, uint64(len(value)))
	payload = append(payload, value...)
	rec := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	return append(rec, payload...)
}

// TestEncodeRecordMatchesLayout: encoding in place — after earlier records,
// into a reused buffer — writes exactly the bytes of the record layout, so
// the WAL format is unchanged.
func TestEncodeRecordMatchesLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	str := func(n int) string {
		b := make([]byte, n)
		rng.Read(b)
		return string(b)
	}
	var buf, want []byte
	for i := 0; i < 2000; i++ {
		if rng.Intn(8) == 0 {
			buf, want = buf[:0], want[:0]
		}
		op, table, key := byte(rng.Intn(6)), str(rng.Intn(20)), str(rng.Intn(40))
		value := []byte(str(rng.Intn(1 << uint(rng.Intn(15)))))
		buf = encodeRecord(buf, op, table, key, value)
		want = append(want, layoutRecord(op, table, key, value)...)
		if !bytes.Equal(buf, want) {
			t.Fatalf("record %d (op %d, %d-byte value) encodes differently from the layout", i, op, len(value))
		}
	}
}

// TestStoreRandomOpsAgainstModel drives both engines with a random op
// sequence and checks them against a plain map model.
func TestStoreRandomOpsAgainstModel(t *testing.T) {
	for name, open := range openers(t) {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			rng := rand.New(rand.NewSource(7))
			modelState := map[string][]byte{}
			keys := []string{"a", "b", "c", "d", "e"}
			for i := 0; i < 2000; i++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(3) {
				case 0:
					v := []byte(fmt.Sprintf("p%d", i))
					modelState[k] = append([]byte(nil), v...)
					if err := s.Put("t", k, v); err != nil {
						t.Fatal(err)
					}
				case 1:
					v := []byte(fmt.Sprintf("a%d", i))
					modelState[k] = append(modelState[k], v...)
					if err := s.Append("t", k, v); err != nil {
						t.Fatal(err)
					}
				case 2:
					delete(modelState, k)
					if err := s.Delete("t", k); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, k := range keys {
				want, wantOK := modelState[k]
				got, gotOK, err := s.Get("t", k)
				if err != nil {
					t.Fatal(err)
				}
				if gotOK != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("key %s: got %q(%v) want %q(%v)", k, got, gotOK, want, wantOK)
				}
			}
		})
	}
}

func TestDiskStoreModelSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	modelState := map[string][]byte{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(20))
		v := []byte(fmt.Sprintf("v%d|", i))
		modelState[k] = append(modelState[k], v...)
		if err := s.Append("t", k, v); err != nil {
			t.Fatal(err)
		}
		if i == 250 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var gotKeys []string
	s2.Scan("t", func(k string, v []byte) error {
		gotKeys = append(gotKeys, k)
		if !bytes.Equal(v, modelState[k]) {
			t.Fatalf("key %s mismatch after reopen", k)
		}
		return nil
	})
	sort.Strings(gotKeys)
	if len(gotKeys) != len(modelState) {
		t.Fatalf("key count: got %d want %d", len(gotKeys), len(modelState))
	}
}
