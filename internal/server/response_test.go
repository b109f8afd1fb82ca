package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"seqlog"
)

// referenceJSON is what writeJSON sent for a DetectResponse before it had
// its own encoder, and what it must still send.
func referenceJSON(t testing.TB, resp DetectResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkDetectJSON(t testing.TB, resp DetectResponse) {
	t.Helper()
	want := referenceJSON(t, resp)
	if got := resp.appendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("appendJSON(%+v)\n got %q\nwant %q", resp, got, want)
	}
}

// edgeInts are the values a hand-rolled integer encoder gets wrong first.
var edgeInts = []int64{0, -1, 1, 9, 10, -10, 1 << 62, 1<<62 - 1, -(1 << 62), -(1<<62 + 1),
	1<<63 - 1, -1 << 63}

// randomDetectResponse draws a response from r: 0 to many matches, Times
// nil, empty or 1-8 long, values small, negative and near ±2^62, and any
// combination of traces and the truncated marker.
func randomDetectResponse(r *rand.Rand) DetectResponse {
	val := func() int64 {
		switch r.Intn(4) {
		case 0:
			return edgeInts[r.Intn(len(edgeInts))]
		case 1:
			return 1<<62 - int64(r.Intn(1000)) - 500
		case 2:
			return r.Int63() - 1<<62
		}
		return int64(r.Intn(2000)) - 1000
	}
	var resp DetectResponse
	switch n := r.Intn(5); n {
	case 0: // nil
	case 1:
		resp.Matches = []seqlog.Match{}
	default:
		resp.Matches = make([]seqlog.Match, r.Intn(40*n))
	}
	for i := range resp.Matches {
		m := &resp.Matches[i]
		m.Trace = val()
		switch k := r.Intn(10); k {
		case 0: // nil Times encodes as null
		case 1:
			m.Times = []int64{}
		default:
			m.Times = make([]int64, k-1)
			for j := range m.Times {
				m.Times[j] = val()
			}
		}
	}
	if r.Intn(2) == 0 {
		resp.Traces = make([]int64, r.Intn(20))
		for i := range resp.Traces {
			resp.Traces[i] = val()
		}
	}
	resp.Truncated = r.Intn(3) == 0
	return resp
}

// TestDetectResponseJSON: the /detect encoder writes exactly the bytes of
// json.NewEncoder(w).Encode, on fixed shapes, random responses and every
// answer a handler gives on one engine, with a Content-Length that matches.
func TestDetectResponseJSON(t *testing.T) {
	m := func(trace int64, times ...int64) seqlog.Match { return seqlog.Match{Trace: trace, Times: times} }
	for _, resp := range []DetectResponse{
		{},
		{Matches: []seqlog.Match{}},
		{Matches: []seqlog.Match{}, Traces: []int64{}},
		{Truncated: true},
		{Matches: []seqlog.Match{{Trace: 3}}},
		{Matches: []seqlog.Match{m(3)}},
		{Matches: []seqlog.Match{m(1, 2, 3), m(-4, -5)}},
		{Matches: []seqlog.Match{m(1<<62, 1<<62-1, -(1 << 62))}, Truncated: true},
		{Matches: []seqlog.Match{m(1<<63-1, -1<<63)}},
		{Traces: []int64{1, 2, 3}},
		{Traces: []int64{-7}, Truncated: true},
		{Matches: []seqlog.Match{m(1, 1, 2, 3, 4, 5, 6, 7, 8)}, Traces: []int64{1}, Truncated: true},
	} {
		checkDetectJSON(t, resp)
	}
	r := rand.New(rand.NewSource(1))
	for range 2000 {
		checkDetectJSON(t, randomDetectResponse(r))
	}

	t.Run("handler", func(t *testing.T) {
		srv, eng := newServer(t)
		var events []seqlog.Event
		acts := []string{"a", "b", "c", "d"}
		for tr := int64(1); tr <= 60; tr++ {
			for i := int64(0); i < 12; i++ {
				events = append(events, seqlog.Event{Trace: tr, Activity: acts[(tr*i+i/3)%4], Time: 10*i + tr%7})
			}
		}
		// z occurs once, last in its trace: nothing follows it.
		events = append(events, seqlog.Event{Trace: 1, Activity: "z", Time: 1000})
		if resp, _ := post(t, srv.URL+"/ingest", IngestRequest{Events: events}); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		partial := true
		for _, tc := range []struct {
			name string
			req  DetectRequest
		}{
			{"join", DetectRequest{Pattern: []string{"a", "b", "c"}}},
			{"within", DetectRequest{Pattern: []string{"a", "b"}, DetectOptions: seqlog.DetectOptions{Within: 15}}},
			{"scan", DetectRequest{Pattern: []string{"a", "b", "a"}, DetectOptions: seqlog.DetectOptions{Scan: true}}},
			{"tracesOnly", DetectRequest{Pattern: []string{"b", "d"}, TracesOnly: true}},
			{"truncated", DetectRequest{Pattern: []string{"a", "b", "c"},
				QueryOverrides: QueryOverrides{BudgetRows: 40, Partial: &partial}}},
			{"empty", DetectRequest{Pattern: []string{"z", "a"}}},
			{"unknown", DetectRequest{Pattern: []string{"a", "nope"}}},
		} {
			ctx := context.Background()
			if tc.req.BudgetRows > 0 {
				ctx = seqlog.WithLimits(ctx, seqlog.Limits{MaxRows: tc.req.BudgetRows, Partial: true})
			}
			ms, err := eng.Detect(ctx, tc.req.Pattern, tc.req.DetectOptions)
			if err != nil && !seqlog.Truncated(err) {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want := DetectResponse{Matches: ms, Truncated: err != nil}
			if tc.req.TracesOnly {
				want.Matches, want.Traces = nil, seqlog.Traces(ms)
			}
			switch tc.name {
			case "empty", "unknown":
				if len(ms) != 0 {
					t.Fatalf("%s: %d matches, want none", tc.name, len(ms))
				}
			case "truncated":
				if !want.Truncated || len(ms) == 0 {
					t.Fatalf("truncated: %d matches, truncated=%v; want a nonempty partial answer", len(ms), want.Truncated)
				}
			default:
				if len(ms) < 2 {
					t.Fatalf("%s: %d matches, want several", tc.name, len(ms))
				}
			}
			raw, _ := json.Marshal(tc.req)
			resp, err := http.Post(srv.URL+"/detect", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, body)
			}
			if ref := referenceJSON(t, want); !bytes.Equal(body, ref) {
				t.Errorf("%s: body\n%s\nwant\n%s", tc.name, body, ref)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
				t.Errorf("%s: Content-Length %q for a %d-byte body", tc.name, cl, len(body))
			}
		}
	})
}

// FuzzDetectResponseJSON: any response built from the input encodes byte
// for byte as encoding/json encodes it.
func FuzzDetectResponseJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{0xff, 0x3f, 0, 0x80}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		val := func() int64 {
			var w [8]byte
			for i := range w {
				w[i] = next()
			}
			return int64(binary.LittleEndian.Uint64(w[:]))
		}
		var resp DetectResponse
		flags := next()
		if flags&1 != 0 {
			resp.Matches = []seqlog.Match{}
		}
		for n := int(next()); n > 0 && len(data) > 0; n-- {
			m := seqlog.Match{Trace: val()}
			if k := next() % 10; k > 0 {
				m.Times = make([]int64, k-1)
				for j := range m.Times {
					m.Times[j] = val()
				}
			}
			resp.Matches = append(resp.Matches, m)
		}
		if flags&2 != 0 {
			resp.Traces = []int64{}
			for n := int(next()); n > 0 && len(data) > 0; n-- {
				resp.Traces = append(resp.Traces, val())
			}
		}
		resp.Truncated = flags&4 != 0
		checkDetectJSON(t, resp)
	})
}

// discardWriter is a ResponseWriter that allocates nothing per response.
type discardWriter struct {
	h    http.Header
	body int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.body += len(p); return len(p), nil }

// TestDetectHandlerAllocsFlat: a /detect answer of ~1,000 matches allocates
// about as often as one of ~10, because the join, the engine and the
// encoder each build it flat. Before, every match cost two slices in the
// engine and a reflective walk on the wire.
func TestDetectHandlerAllocsFlat(t *testing.T) {
	eng, err := seqlog.Open(seqlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var events []seqlog.Event
	for tr := int64(1); tr <= 1000; tr++ {
		events = append(events,
			seqlog.Event{Trace: tr, Activity: "a", Time: 1},
			seqlog.Event{Trace: tr, Activity: "b", Time: 2},
			seqlog.Event{Trace: tr, Activity: "c", Time: 3})
		if tr <= 10 {
			events = append(events, seqlog.Event{Trace: tr, Activity: "x", Time: 4},
				seqlog.Event{Trace: tr, Activity: "y", Time: 5}, seqlog.Event{Trace: tr, Activity: "z", Time: 6})
		}
	}
	if _, err := eng.Ingest(events); err != nil {
		t.Fatal(err)
	}
	h := New(eng)
	allocs := func(pattern string, wantMatches int) float64 {
		body := fmt.Sprintf(`{"pattern":[%s]}`, pattern)
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			w.body = 0
			r := httptest.NewRequest(http.MethodPost, "/detect", strings.NewReader(body))
			h.ServeHTTP(w, r)
		}
		serve()
		ms, err := eng.Detect(context.Background(), strings.Split(strings.ReplaceAll(pattern, `"`, ""), ","), seqlog.DetectOptions{})
		if err != nil || len(ms) != wantMatches {
			t.Fatalf("%s: %d matches (%v), want %d", pattern, len(ms), err, wantMatches)
		}
		if w.body != len(referenceJSON(t, DetectResponse{Matches: ms})) {
			t.Fatalf("%s: %d-byte body", pattern, w.body)
		}
		return testing.AllocsPerRun(50, serve)
	}
	small := allocs(`"x","y","z"`, 10)
	large := allocs(`"a","b","c"`, 1000)
	t.Logf("allocs per /detect: %.0f for 10 matches, %.0f for 1000", small, large)
	if large-small > 40 {
		t.Fatalf("allocs per /detect: %.0f for 10 matches, %.0f for 1000; want a difference of at most 40, not a cost per match", small, large)
	}
}
