package eventlog

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV asserts the CSV reader never panics and that whatever it
// accepts survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("trace,activity,timestamp\n1,A,10\n1,B,20\n")
	f.Add("1,A,10\n2,B,5\n1,C,1\n")
	f.Add("")
	f.Add("x,y\n")
	f.Add("1,A,notanumber\n")
	f.Add("999999999999999999999,A,1\n")
	f.Fuzz(func(t *testing.T, src string) {
		log, err := ReadCSV(strings.NewReader(src))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, log); err != nil {
			t.Fatalf("accepted log failed to serialise: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.NumEvents() != log.NumEvents() || back.NumTraces() != log.NumTraces() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				log.NumEvents(), log.NumTraces(), back.NumEvents(), back.NumTraces())
		}
	})
}

// FuzzReadXES asserts the XES reader never panics and round-trips whatever
// it accepts.
func FuzzReadXES(f *testing.F) {
	f.Add(`<log><trace><string key="concept:name" value="1"/>` +
		`<event><string key="concept:name" value="A"/></event></trace></log>`)
	f.Add(`<log></log>`)
	f.Add(`<log><trace></trace></log>`)
	f.Add(`<event/>`)
	f.Add(`<<<`)
	f.Add(`<log><trace><event><date key="time:timestamp" value="2021-03-23T10:00:00.000Z"/>` +
		`<string key="concept:name" value="B"/></event></trace></log>`)
	f.Fuzz(func(t *testing.T, src string) {
		log, err := ReadXES(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteXES(&buf, log); err != nil {
			t.Fatalf("accepted log failed to serialise: %v", err)
		}
		back, err := ReadXES(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.NumEvents() != log.NumEvents() || back.NumTraces() != log.NumTraces() {
			t.Fatalf("round trip changed shape")
		}
	})
}
