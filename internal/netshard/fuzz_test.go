package netshard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"seqlog/internal/kvstore"
	"seqlog/internal/model"
	"seqlog/internal/storage"
)

// mustFrame encodes a payload as one wire frame.
func mustFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeFrame(&b, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzNetFrame: the frame reader over arbitrary bytes must never panic,
// never allocate beyond the declared cap, and anything it accepts must
// round-trip through the writer as a fixpoint.
func FuzzNetFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustFrame(f, []byte{opPing}))
	f.Add(mustFrame(f, []byte{stOK, 1, 2, 3}))
	f.Add([]byte{0, 0, 0, 0})             // zero-length frame: invalid
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB declared: too large
	f.Add([]byte{0x80, 0x00, 0x00, 0x01}) // "negative" as int32: too large
	f.Add([]byte{0, 0, 0, 9, 1, 2})       // truncated body
	f.Fuzz(func(t *testing.T, raw []byte) {
		const max = 1 << 16
		payload, err := readFrame(bytes.NewReader(raw), nil, max)
		if err != nil {
			return
		}
		if len(payload) == 0 || len(payload) > max {
			t.Fatalf("accepted frame outside (0, max]: %d bytes", len(payload))
		}
		again, err := readFrame(bytes.NewReader(mustFrame(t, payload)), nil, max)
		if err != nil {
			t.Fatalf("re-read of a written frame failed: %v", err)
		}
		if !bytes.Equal(payload, again) {
			t.Fatalf("frame round-trip diverged: %x vs %x", payload, again)
		}
	})
}

// FuzzNetRequest: arbitrary request bodies against a live server dispatch
// must produce a response or a typed error — never a panic, never an
// unbounded allocation. Both the unary surface and the commit-group
// op-stream parser are exercised.
func FuzzNetRequest(f *testing.F) {
	// Seed every opcode with an empty body plus a few well-formed requests.
	for op := byte(1); op < opMax; op++ {
		f.Add(op, []byte{})
	}
	var w wbuf
	w.i64(7)
	f.Add(opGetSeq, append([]byte{}, w.b...))
	w = wbuf{}
	w.str("policy")
	f.Add(opGetMeta, append([]byte{}, w.b...))
	w = wbuf{}
	w.u64(9)
	f.Add(opGetLastCompletion, append([]byte{}, w.b...))
	w.i64(250)
	w.u64(1 << 60) // trailing bytes after a complete body: rejected, not ignored
	f.Add(opMergeLastCompletion, append([]byte{}, w.b...))
	w = wbuf{}
	w.i64(3)
	f.Add(opGetCounts, append([]byte{}, w.b...))
	w.i64(4)
	f.Add(opGetPairCount, append([]byte{}, w.b...))
	w = wbuf{}
	w.i64(3)
	w.blob(storage.EncodeCountRow(nil, []storage.CountEntry{{Other: 4, SumDuration: 9, Completions: 2}}))
	f.Add(opMergeCounts, append([]byte{}, w.b...))
	f.Add(opCommit, []byte{opAppendSeq, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	store := kvstore.NewMemStore()
	tab := storage.NewTables(store)
	srv := NewServer(tab, store, ServerOptions{})
	f.Cleanup(func() { srv.Close(); tab.Close(); store.Close() })

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		if op == opCommit {
			srv.applyCommit(body)
			return
		}
		srv.unary(op, body)
	})
}

// TestCraftedFrames pins the adversarial-input contract end to end: frames
// declaring zero, huge, or sign-bit lengths fail with the typed sentinels
// BEFORE any allocation happens, on both sides of the wire.
func TestCraftedFrames(t *testing.T) {
	// Reader-level: the length prefix is validated against the cap first.
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"zero-length", []byte{0, 0, 0, 0}, ErrBadFrame},
		{"max-uint32", []byte{0xFF, 0xFF, 0xFF, 0xFF}, ErrFrameTooLarge},
		{"negative-int32", []byte{0x80, 0x00, 0x00, 0x01}, ErrFrameTooLarge},
		{"just-over-cap", binary.BigEndian.AppendUint32(nil, DefaultMaxFrame+1), ErrFrameTooLarge},
	} {
		_, err := readFrame(bytes.NewReader(tc.raw), nil, DefaultMaxFrame)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: readFrame err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Server-level: a client shipping a crafted header gets the typed wire
	// error back before the connection drops, and the server survives to
	// serve the next (honest) client.
	store := kvstore.NewMemStore()
	tab := storage.NewTables(store)
	if err := tab.AppendSeq(1, []model.TraceEvent{{Activity: 1, TS: 1}}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tab, store, ServerOptions{})
	go srv.Serve(ln)
	defer srv.Close()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := writeHello(raw); err != nil {
		t.Fatal(err)
	}
	if err := readHello(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(raw, nil, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("server dropped the conn without a typed answer: %v", err)
	}
	if len(payload) < 2 || payload[0] != stErr || payload[1] != ecFrameTooLarge {
		t.Fatalf("crafted frame answer = %x, want stErr/ecFrameTooLarge", payload)
	}

	cl, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if n, err := cl.NumTraces(context.Background()); err != nil || n != 1 {
		t.Fatalf("server unusable after crafted frame: %d, %v", n, err)
	}

	// Opcode-level: an opcode past the table (a retired number, or one from
	// a newer peer) is answered with the unknown-op error, and the
	// connection keeps serving.
	oc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	if err := writeHello(oc); err != nil {
		t.Fatal(err)
	}
	if err := readHello(oc); err != nil {
		t.Fatal(err)
	}
	for _, op := range []byte{opMax, opMax + 1, 0xFF} {
		if _, err := oc.Write(mustFrame(t, []byte{op, 0})); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(oc, nil, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("opcode %d: no answer: %v", op, err)
		}
		if len(payload) < 2 || payload[0] != stErr || payload[1] != ecBadFrame ||
			!bytes.Contains(payload[2:], []byte("unknown opcode")) {
			t.Fatalf("opcode %d answer = %q, want stErr/ecBadFrame unknown opcode", op, payload)
		}
	}
	if _, err := oc.Write(mustFrame(t, []byte{opPing})); err != nil {
		t.Fatal(err)
	}
	if payload, err := readFrame(oc, nil, DefaultMaxFrame); err != nil || payload[0] != stOK {
		t.Fatalf("ping after unknown opcodes = %x, %v", payload, err)
	}

	// Body-level: a complete merge_last_completion body followed by more
	// bytes is malformed, not a request with ignorable padding.
	var body wbuf
	body.u64(9)
	body.i64(250)
	body.byte1(0)
	if _, err := srv.unary(opMergeLastCompletion, body.b); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("merge_last_completion with trailing bytes: %v, want ErrBadFrame", err)
	}
	if ts, _ := tab.GetLastCompletion(context.Background(), 9); ts != 0 {
		t.Fatalf("malformed merge applied: LastCompletion = %d", ts)
	}

	// Client-level: a response with an oversized declared length fails as a
	// typed *OpError wrapping ErrFrameTooLarge, not an OOM.
	lln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lln.Close()
	go func() {
		c, err := lln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var h [8]byte
		c.Read(h[:])
		writeHello(c)
		// Swallow the request frame, answer with a 4 GiB header.
		buf := make([]byte, 1024)
		c.Read(buf)
		c.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	}()
	evil, err := Dial(lln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	_, err = evil.NumTraces(context.Background())
	var oe *OpError
	if !errors.As(err, &oe) || !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized response err = %v, want *OpError wrapping ErrFrameTooLarge", err)
	}

	// Commit-level: a group larger than the server's cap is refused with
	// the typed sentinel, not accumulated until memory runs out.
	ds, err := kvstore.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	dtab := storage.NewTables(ds)
	defer dtab.Close()
	small := NewServer(dtab, ds, ServerOptions{MaxCommit: 4096})
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go small.Serve(sln)
	defer small.Close()
	bc, err := Dial(sln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	bw := bc.Batch()
	if err := bw.BeginBatch(); err != nil {
		t.Fatal(err)
	}
	if err := bc.PutMeta("blob", make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	err = bw.CommitBatch()
	if !errors.Is(err, ErrCommitTooLarge) {
		t.Fatalf("oversized commit err = %v, want ErrCommitTooLarge", err)
	}
	// The group was rejected wholesale: nothing applied.
	if _, ok, _ := dtab.GetMeta("blob"); ok {
		t.Fatal("refused commit group leaked a write")
	}
}
