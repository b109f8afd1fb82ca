package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"seqlog"
	"seqlog/internal/loggen"
	"seqlog/internal/model"
)

// The corpus and the pattern pool are constants of the benchmark: the catalog
// spec keeps its own generator seed, so every -seed measures the same index
// shape (a different Markov process changes postings per event by 2x on
// bpi_2017, which would drown any bound). -seed drives what is allowed to
// vary between runs: the start offset of every trace, which reshuffles the
// global time order and so the composition of every ingest batch, and the
// draws of the op list.
const (
	poolSeed = 20210323 // EDBT 2021; fixes which patterns the pool holds
	// traceOffsetSpan bounds the per-trace start offset in ms: about one
	// mean trace duration, so traces keep overlapping as the catalog's do.
	traceOffsetSpan = 20000
)

// corpus is one generated log in the two shapes the benchmark needs.
type corpus struct {
	dataset string
	log     *model.Log
	events  []seqlog.Event // time-ordered across traces
}

func makeCorpus(dataset string, scale float64, seed int64) (*corpus, error) {
	spec, err := loggen.Lookup(dataset)
	if err != nil {
		return nil, err
	}
	log := spec.Generate(scale)
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for _, tr := range log.Traces {
		off := model.Timestamp(rng.Int63n(traceOffsetSpan))
		for i := range tr.Events {
			tr.Events[i].TS += off
		}
		n += len(tr.Events)
	}
	events := make([]seqlog.Event, 0, n)
	for _, tr := range log.Traces {
		for _, ev := range tr.Events {
			events = append(events, seqlog.Event{
				Trace: int64(tr.ID), Activity: log.Alphabet.Name(ev.Activity), Time: int64(ev.TS),
			})
		}
	}
	// Stable: events of one trace keep their order on equal timestamps.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return &corpus{dataset: dataset, log: log, events: events}, nil
}

// digest is the FNV-1a fingerprint of the events in order.
func (c *corpus) digest() string {
	h := fnv.New64a()
	for _, ev := range c.events {
		fmt.Fprintf(h, "%d|%s|%d\n", ev.Trace, ev.Activity, ev.Time)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// medianGap is the median time between consecutive events of a trace, the
// benchmark's stand-in for "the median pair duration" of the WITHIN clause.
func (c *corpus) medianGap() int64 {
	var gaps []int64
	for _, tr := range c.log.Traces {
		for i := 1; i < len(tr.Events); i++ {
			gaps = append(gaps, int64(tr.Events[i].TS-tr.Events[i-1].TS))
		}
	}
	if len(gaps) == 0 {
		return 1
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2]
}

// makePool cuts n distinct patterns of minLen..maxLen consecutive activities
// out of real traces, so every pattern has at least one match. It returns
// fewer when the log cannot supply n distinct ones.
func makePool(log *model.Log, n, minLen, maxLen int) [][]string {
	rng := rand.New(rand.NewSource(poolSeed))
	seen := make(map[string]bool, n)
	var pool [][]string
	for tries := 0; len(pool) < n && tries < 50*n; tries++ {
		l := minLen + rng.Intn(maxLen-minLen+1)
		tr := log.Traces[rng.Intn(len(log.Traces))]
		if tr.Len() < l {
			continue
		}
		start := rng.Intn(tr.Len() - l + 1)
		p := make([]string, l)
		for i := range p {
			p[i] = log.Alphabet.Name(tr.Events[start+i].Activity)
		}
		key := strings.Join(p, "\x00")
		if seen[key] {
			continue
		}
		seen[key] = true
		pool = append(pool, p)
	}
	return pool
}

type opKind uint8

const (
	opDetect opKind = iota
	opStats
	opExplore
	opIngest // POST /ingest, one JSON batch
	opStream // POST /ingest/stream, one NDJSON chunk
	numOpKinds
)

var opKindNames = [numOpKinds]string{"detect", "stats", "explore", "ingest", "stream"}
var opPaths = [numOpKinds]string{"/detect", "/stats", "/explore", "/ingest", "/ingest/stream"}

// template is one distinct request the load generator can send: the body is
// encoded once, the oracle fills in the expected answer once.
type template struct {
	kind    opKind
	body    []byte
	pattern []string
	within  int64
	mode    seqlog.ExploreMode
	evs     []seqlog.Event // ingest templates: the events carried

	// Expected answer, filled by the oracle before the window.
	want    uint32 // CRC-32C of the canonical response
	hasWant bool
}

// readMix describes a read workload's traffic.
type readMix struct {
	poolSize       int
	minLen, maxLen int
	zipf           bool // Zipf(1.1) over pool ranks; uniform otherwise
	exploreMode    seqlog.ExploreMode
	// exploreMaxLen is the longest pattern explore draws: accurate explore
	// verifies every activity with a full detection, so its cost grows with
	// the pattern, and a median over a 3-to-8 mix would mostly measure which
	// lengths the seed happened to draw.
	exploreMaxLen int
	withinEvery   int // every n-th detect carries within; 0 = none
}

// Shares of the read mix in percent: detect, stats, explore.
const (
	detectShare = 80
	statsShare  = 10
)

// readTraffic holds a read workload's templates and its seeded op list.
type readTraffic struct {
	templates []*template
	ops       []int32 // indices into templates
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of strings reach here
	}
	return b
}

// makeReadTraffic builds the templates for pool under mix and draws nOps ops
// from seed. Template layout per pattern i: detect, within-detect (or nil),
// stats, explore (or nil).
func makeReadTraffic(c *corpus, mix readMix, seed int64, nOps int) *readTraffic {
	if nOps < opsDigestPrefix {
		nOps = opsDigestPrefix // the pinned digest covers this many, whatever -seconds is
	}
	pool := makePool(c.log, mix.poolSize, mix.minLen, mix.maxLen)
	within := c.medianGap()
	rt := &readTraffic{}
	type slots struct{ detect, within, stats, explore int32 }
	idx := make([]slots, len(pool))
	var explorable []int // pool indices explore may draw
	add := func(t *template) int32 {
		rt.templates = append(rt.templates, t)
		return int32(len(rt.templates) - 1)
	}
	for i, p := range pool {
		s := slots{within: -1, explore: -1}
		s.detect = add(&template{kind: opDetect, pattern: p, body: mustJSON(map[string]any{"pattern": p})})
		if mix.withinEvery > 0 {
			s.within = add(&template{kind: opDetect, pattern: p, within: within,
				body: mustJSON(map[string]any{"pattern": p, "within": within})})
		}
		s.stats = add(&template{kind: opStats, pattern: p, body: mustJSON(map[string]any{"pattern": p})})
		if len(p) <= mix.exploreMaxLen {
			explorable = append(explorable, i)
			s.explore = add(&template{kind: opExplore, pattern: p, mode: mix.exploreMode,
				body: mustJSON(map[string]any{"pattern": p, "mode": string(mix.exploreMode)})})
		}
		idx[i] = s
	}
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if mix.zipf {
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	}
	draw := func(n int) int {
		if zipf != nil {
			if r := int(zipf.Uint64()); r < n {
				return r
			}
		}
		return rng.Intn(n)
	}
	rt.ops = make([]int32, nOps)
	detects := 0
	for i := range rt.ops {
		switch r := rng.Intn(100); {
		case r < detectShare:
			s := idx[draw(len(pool))]
			detects++
			if s.within >= 0 && detects%mix.withinEvery == 0 {
				rt.ops[i] = s.within
			} else {
				rt.ops[i] = s.detect
			}
		case r < detectShare+statsShare:
			rt.ops[i] = idx[draw(len(pool))].stats
		default:
			rt.ops[i] = idx[explorable[draw(len(explorable))]].explore
		}
	}
	return rt
}

// opsDigestPrefix is how many ops the digest covers: the op list grows with
// -seconds, its pinned fingerprint must not.
const opsDigestPrefix = 4096

func (rt *readTraffic) digest() string {
	h := fnv.New64a()
	n := len(rt.ops)
	if n > opsDigestPrefix {
		n = opsDigestPrefix
	}
	for _, ti := range rt.ops[:n] {
		t := rt.templates[ti]
		h.Write([]byte(opPaths[t.kind]))
		h.Write(t.body)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// makeIngestTraffic splits time-ordered events between len(kinds) writers by
// trace id, so the writers never share a trace and each trace's events stay
// in order, and cuts every writer's share into requests of exactly batch
// events (the remainder is dropped, which keeps events per request constant).
func makeIngestTraffic(events []seqlog.Event, batch int, kinds []opKind) [][]*template {
	shares := make([][]seqlog.Event, len(kinds))
	for _, ev := range events {
		w := int(ev.Trace) % len(kinds)
		shares[w] = append(shares[w], ev)
	}
	writers := make([][]*template, len(kinds))
	for w, share := range shares {
		for len(share) >= batch {
			writers[w] = append(writers[w], ingestTemplate(kinds[w], share[:batch]))
			share = share[batch:]
		}
	}
	return writers
}

func ingestTemplate(kind opKind, events []seqlog.Event) *template {
	t := &template{kind: kind, evs: events}
	if kind == opIngest {
		t.body = mustJSON(map[string]any{"events": events})
		return t
	}
	var b []byte
	for _, ev := range events {
		b = append(b, mustJSON(ev)...)
		b = append(b, '\n')
	}
	t.body = b
	return t
}

func ingestDigest(writers [][]*template) string {
	h := fnv.New64a()
	for _, w := range writers {
		for _, t := range w {
			h.Write(t.body)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
