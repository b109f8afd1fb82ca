package clitest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"seqlog"
)

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// start runs a binary in the background until the test ends, then kills
// it. Its output is returned for failure messages.
func start(t *testing.T, name string, args ...string) *bytes.Buffer {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return &out
}

// waitFor polls ready for up to ten seconds.
func waitFor(t *testing.T, what string, out *bytes.Buffer, ready func() bool) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if ready() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never became ready\n%s", what, out.String())
}

func httpHealthy(base string) func() bool {
	return func() bool {
		resp, err := http.Get(base + "/health")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
}

func tcpAccepts(addr string) func() bool {
	return func() bool {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
		}
		return err == nil
	}
}

// startShards serves each directory with a seqshard ("" = in-memory),
// passing no segment option, and returns their addresses.
func startShards(t *testing.T, dirs ...string) []string {
	t.Helper()
	var addrs []string
	for _, dir := range dirs {
		addr := freeAddr(t)
		out := start(t, "seqshard", "-addr", addr, "-dir", dir)
		waitFor(t, "seqshard "+dir, out, tcpAccepts(addr))
		addrs = append(addrs, addr)
	}
	return addrs
}

// fleetLog is a small deterministic log whose activities recur often
// enough that every query family has answers.
func fleetLog() []seqlog.Event {
	var evs []seqlog.Event
	for tr := int64(1); tr <= 40; tr++ {
		ts := tr * 7
		for i := int64(0); i < 10+tr%6; i++ {
			ts += 1 + (tr*i)%5
			evs = append(evs, seqlog.Event{Trace: tr, Activity: fmt.Sprintf("act_%d", (tr+i*i)%5), Time: ts})
		}
	}
	return evs
}

// familyAnswers renders every query family, the policy-dependent scan
// included, for byte comparison.
func familyAnswers(t *testing.T, e *seqlog.Engine) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	add := func(v any, err error) {
		if err != nil {
			out = append(out, "error: "+err.Error())
			return
		}
		raw, _ := json.Marshal(v)
		out = append(out, string(raw))
	}
	info, err := e.Info()
	add(fmt.Sprintf("policy=%s shards=%d traces=%d partitions=%v", info.Policy, info.Shards, info.Traces, info.Partitions), err)
	for _, p := range [][]string{{"act_0", "act_1"}, {"act_1", "act_3", "act_2"}, {"act_4", "act_0", "act_4"}} {
		add(e.Detect(ctx, p, seqlog.DetectOptions{}))
		add(e.Detect(ctx, p, seqlog.DetectOptions{Scan: true}))
		add(e.Detect(ctx, p, seqlog.DetectOptions{Within: 12}))
		add(e.Stats(ctx, p, seqlog.StatsOptions{AllPairs: true}))
	}
	for _, mode := range []seqlog.ExploreMode{seqlog.Accurate, seqlog.Fast, seqlog.Hybrid} {
		add(e.Explore(ctx, []string{"act_2"}, seqlog.ExploreOptions{Mode: mode, TopK: 2}))
	}
	pos := 0
	add(e.Explore(ctx, []string{"act_1", "act_3"}, seqlog.ExploreOptions{Position: &pos}))
	return out
}

// TestSeqshardServesFrozenStore: a sharded store an engine built with SC
// and froze opens under seqshard with no segment option, and the fleet
// answers every query family byte-identically to the local engine — from
// an in-process engine and from a seqserver -shard-addrs front end, neither
// of which names the policy.
func TestSeqshardServesFrozenStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	base := t.TempDir()
	local, err := seqlog.Open(seqlog.Config{Dir: base, Shards: 2, Policy: "SC"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Ingest(fleetLog()); err != nil {
		t.Fatal(err)
	}
	if err := local.Freeze(); err != nil {
		t.Fatal(err)
	}
	if st := local.SegmentStats(); st.Segments != 2 {
		t.Fatalf("freeze left %d segments, want one per shard", st.Segments)
	}
	want := familyAnswers(t, local)
	wantScan, err := local.Detect(context.Background(), []string{"act_0", "act_1"}, seqlog.DetectOptions{Scan: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}

	addrs := startShards(t, filepath.Join(base, "shard-0000"), filepath.Join(base, "shard-0001"))
	remote, err := seqlog.Open(seqlog.Config{ShardAddrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if got := familyAnswers(t, remote); !reflect.DeepEqual(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("answer %d over the fleet diverges from the local engine:\n local: %s\n fleet: %s", i, want[i], got[i])
			}
		}
	}

	front := "http://" + freeAddr(t)
	out := start(t, "seqserver", "-addr", strings.TrimPrefix(front, "http://"), "-read-only", "-shard-addrs", strings.Join(addrs, ","))
	waitFor(t, "seqserver -shard-addrs", out, httpHealthy(front))
	var info struct{ Policy string }
	getJSON(t, front+"/info", &info)
	if info.Policy != "SC" {
		t.Fatalf("front end over an SC fleet reports policy %q", info.Policy)
	}
	var det struct{ Matches []seqlog.Match }
	postJSON(t, front+"/detect", `{"pattern":["act_0","act_1"],"scan":true}`, &det)
	if !reflect.DeepEqual(det.Matches, wantScan) {
		t.Fatalf("front end scan diverges:\n local: %v\n front: %v", wantScan, det.Matches)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url, body string, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %s\n%s", url, resp.Status, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestCoordinatorCapsIngestBody: the seqrouter -shard-map coordinator takes
// the fleet's writes through seqserver's serve path, so a valid /ingest
// body one byte over seqserver's default 64 MiB cap is refused with 413.
func TestCoordinatorCapsIngestBody(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	work := t.TempDir()
	mapPath := filepath.Join(work, "shards.txt")
	if err := os.WriteFile(mapPath, []byte(strings.Join(startShards(t, "", ""), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	out := start(t, "seqrouter", "-listen", addr, "-shard-map", mapPath)
	waitFor(t, "seqrouter -shard-map", out, httpHealthy("http://"+addr))

	const limit = 64 << 20
	head := `{"events":[{"Trace":1,"Activity":"a","Time":1}]`
	size := int64(limit + 1)
	body := io.MultiReader(strings.NewReader(head),
		io.LimitReader(spaces{}, size-int64(len(head))-1), strings.NewReader("}"))

	// A raw connection: the server answers before the body is through, and
	// the response must be read whatever happens to the rest of the write.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, size)
		io.Copy(conn, body)
	}()
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte /ingest body to the coordinator: %s, want 413", size, resp.Status)
	}
}

// TestBenchmarkArgvContract starts each binary with exactly the argument
// vectors the benchmark module passes and waits for it to report healthy,
// so a flag the benchmark relies on cannot disappear unnoticed.
func TestBenchmarkArgvContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	work := t.TempDir()

	dir := filepath.Join(work, "server")
	addr := freeAddr(t)
	out := start(t, "seqserver", "-dir", dir, "-segments", "-addr", addr, "-cache-mb", "1")
	waitFor(t, "seqserver", out, httpHealthy("http://"+addr))

	var shards []string
	for i := 0; i < 2; i++ {
		dir := filepath.Join(work, "fleet", fmt.Sprintf("shard-%04d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		addr, maddr := freeAddr(t), freeAddr(t)
		out := start(t, "seqshard", "-addr", addr, "-dir", dir, "-segments", "-metrics-addr", maddr)
		waitFor(t, "seqshard", out, tcpAccepts(addr))
		shards = append(shards, addr)
	}
	mapPath := filepath.Join(work, "fleet", "shards.txt")
	if err := os.WriteFile(mapPath, []byte(strings.Join(shards, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	router := freeAddr(t)
	out = start(t, "seqrouter", "-listen", router, "-shard-map", mapPath)
	waitFor(t, "seqrouter", out, httpHealthy("http://"+router))
	replica := freeAddr(t)
	out = start(t, "seqserver", "-addr", replica, "-read-only", "-shard-addrs", strings.Join(shards, ","))
	waitFor(t, "seqserver replica", out, httpHealthy("http://"+replica))
}

// TestQueryTakesBuildFromStore: seqquery opens an SC store and a sharded
// store without restating how they were built.
func TestQueryTakesBuildFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	work := t.TempDir()
	csv := filepath.Join(work, "log.csv")
	run(t, "loggen", "-random", "-traces", "20", "-events", "10", "-activities", "4", "-o", csv)
	sc, plain, sharded := filepath.Join(work, "sc"), filepath.Join(work, "plain"), filepath.Join(work, "sharded")
	run(t, "seqindex", "-dir", sc, "-policy", "SC", csv)
	run(t, "seqindex", "-dir", plain, csv)
	run(t, "seqindex", "-dir", sharded, "-shards", "2", csv)

	out := run(t, "seqquery", "-dir", sc, "info")
	if !strings.Contains(out, "policy=SC") || !strings.Contains(out, "segments: files=1") {
		t.Fatalf("seqquery info on an SC store seqindex built (and froze):\n%s", out)
	}
	run(t, "seqquery", "-dir", sc, "detect", "-scan", "act_000", "act_001")
	want := run(t, "seqquery", "-dir", plain, "detect", "-limit", "1000", "act_000", "act_001")
	if got := run(t, "seqquery", "-dir", sharded, "detect", "-limit", "1000", "act_000", "act_001"); got != want {
		t.Fatalf("detect over the sharded store diverges:\n%s\nwant:\n%s", got, want)
	}
}
