package eventlog

import (
	"bytes"
	"strings"
	"testing"

	"seqlog/internal/loggen"
	"seqlog/internal/model"
)

func sampleLog() *model.Log {
	l := model.NewLog()
	a := l.Alphabet.ID("submit")
	b := l.Alphabet.ID("review")
	t1 := &model.Trace{ID: 1}
	t1.Append(a, 1000)
	t1.Append(b, 2500)
	t2 := &model.Trace{ID: 2}
	t2.Append(b, 500)
	l.Traces = append(l.Traces, t1, t2)
	return l
}

// logsEqual compares two logs structurally through their alphabets.
func logsEqual(t *testing.T, a, b *model.Log) {
	t.Helper()
	if a.NumTraces() != b.NumTraces() {
		t.Fatalf("trace counts: %d != %d", a.NumTraces(), b.NumTraces())
	}
	for i := range a.Traces {
		ta, tb := a.Traces[i], b.Traces[i]
		if ta.ID != tb.ID || ta.Len() != tb.Len() {
			t.Fatalf("trace %d shape mismatch", i)
		}
		for j := range ta.Events {
			na := a.Alphabet.Name(ta.Events[j].Activity)
			nb := b.Alphabet.Name(tb.Events[j].Activity)
			if na != nb || ta.Events[j].TS != tb.Events[j].TS {
				t.Fatalf("trace %d event %d: (%s,%d) != (%s,%d)",
					i, j, na, ta.Events[j].TS, nb, tb.Events[j].TS)
			}
		}
	}
}

func TestXESRoundTrip(t *testing.T) {
	orig := sampleLog()
	var buf bytes.Buffer
	if err := WriteXES(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "concept:name") || !strings.Contains(buf.String(), "time:timestamp") {
		t.Fatalf("xes missing standard attributes:\n%s", buf.String())
	}
	back, err := ReadXES(&buf)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, orig, back)
}

func TestXESRoundTripGenerated(t *testing.T) {
	orig := loggen.MarkovLog(loggen.MarkovLogConfig{Traces: 40, Activities: 8, MeanLen: 12, MinLen: 1, MaxLen: 40, Seed: 11})
	var buf bytes.Buffer
	if err := WriteXES(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadXES(&buf)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, orig, back)
}

func TestReadXESWithoutTimestamps(t *testing.T) {
	src := `<?xml version="1.0"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="9"/>
    <event><string key="concept:name" value="A"/></event>
    <event><string key="concept:name" value="B"/></event>
  </trace>
</log>`
	log, err := ReadXES(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if log.NumTraces() != 1 || log.Traces[0].ID != 9 {
		t.Fatalf("log = %+v", log.Traces)
	}
	// Positions stand in for timestamps (§3.1.1).
	evs := log.Traces[0].Events
	if len(evs) != 2 || evs[0].TS != 1 || evs[1].TS != 2 {
		t.Fatalf("events = %v", evs)
	}
}

func TestReadXESNonNumericTraceName(t *testing.T) {
	src := `<log><trace><string key="concept:name" value="case-x"/>
	  <event><string key="concept:name" value="A"/></event></trace></log>`
	log, err := ReadXES(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Non-numeric names keep the sequential id.
	if log.Traces[0].ID != 1 {
		t.Fatalf("id = %d", log.Traces[0].ID)
	}
}

func TestReadXESEventOutsideTrace(t *testing.T) {
	src := `<log><event><string key="concept:name" value="A"/></event></log>`
	if _, err := ReadXES(strings.NewReader(src)); err == nil {
		t.Fatal("event outside trace accepted")
	}
}

func TestReadXESMalformed(t *testing.T) {
	if _, err := ReadXES(strings.NewReader("<log><trace>")); err == nil {
		t.Fatal("unterminated xml accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := sampleLog()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	logsEqual(t, orig, back)
}

func TestReadCSVUnsortedRows(t *testing.T) {
	src := "trace,activity,timestamp\n2,B,5\n1,A,10\n1,B,3\n"
	log, err := ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if log.NumTraces() != 2 {
		t.Fatalf("traces = %d", log.NumTraces())
	}
	// Trace 1 assembled and time-sorted: B@3 then A@10.
	tr := log.Trace(1)
	if tr.Events[0].TS != 3 || log.Alphabet.Name(tr.Events[0].Activity) != "B" {
		t.Fatalf("trace 1 = %v", tr.Events)
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	log, err := ReadCSV(strings.NewReader("1,A,10\n"))
	if err != nil || log.NumEvents() != 1 {
		t.Fatalf("headerless csv: %v %v", log, err)
	}
}

func TestReadCSVBadRows(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,A\n")); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("x,A,1\n")); err == nil {
		t.Fatal("bad trace id accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,A,x\n")); err == nil {
		t.Fatal("bad timestamp accepted")
	}
}
