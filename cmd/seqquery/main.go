// Command seqquery runs pattern queries against an index built by seqindex,
// either by opening the index directory directly or by talking to a running
// seqserver over HTTP.
//
// Usage:
//
//	seqquery -dir ./idx detect  [-scan | -within MS] [-limit 20] search view cart
//	seqquery -dir ./idx traces  [-scan | -within MS] [-limit 20] search view cart
//	seqquery -dir ./idx stats   [-all-pairs] search view
//	seqquery -dir ./idx explore [-mode hybrid] [-topk 5] [-maxgap 0] [-pos N] search view
//	seqquery -dir ./idx info
//	seqquery -dir ./idx metrics
//	seqquery -server http://host:8080 [-retries 3] detect search view cart
//
// The query verbs parse their flags into the request bodies of POST
// /detect, /stats and /explore, which carry the engine's option structs:
// server mode posts the body, local mode passes its options to the engine.
// traces is detect answering with the distinct trace ids.
//
// Every query accepts the shared bounds -timeout-ms (cooperative deadline),
// -budget-rows (row budget) and -partial-results (detect family: return the
// matches found when the budget trips, marked truncated, instead of
// failing). In server mode they ride in the request body and the server
// clamps them against its own caps.
//
// Global flags (-dir, -server, ...) come before the verb; verb flags after
// it. A local open takes the policy, order and shard count from what the
// store pins. In server mode idempotent GETs (the info verb) are retried with
// exponential backoff; query POSTs are attempted once.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"seqlog"
	"seqlog/cmd/internal/cliflag"
	"seqlog/internal/httpclient"
	"seqlog/internal/server"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: seqquery {-dir DIR | -server URL} [flags] {detect|traces|stats|explore|info|metrics} [verb flags] ACTIVITY...")
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	f := cliflag.New(flag.CommandLine)
	f.Store("dir", "shard-dir", "cache-mb")
	srvURL := flag.String("server", "", "seqserver base URL (server mode, e.g. http://localhost:8080; excludes -dir)")
	retries := flag.Int("retries", 3, "server mode: retry idempotent GETs this many times on connection errors and 5xx")
	var lim limits
	flag.Int64Var(&lim.timeoutMS, "timeout-ms", 0, "per-query deadline in milliseconds; the query is aborted cooperatively (0 disables; server mode can only tighten the server's cap)")
	flag.Int64Var(&lim.budgetRows, "budget-rows", 0, "per-query row budget; exceeding it fails the query (0 disables)")
	flag.BoolVar(&lim.partial, "partial-results", false, "detect queries that trip the row budget print the matches found so far, marked truncated, instead of failing")
	flag.Parse()
	if (f.Config.Dir == "") == (*srvURL == "") || flag.NArg() < 1 {
		usage()
	}
	verb, rest := flag.Arg(0), flag.Args()[1:]

	// Exactly one of eng (local mode) and c (server mode) is set.
	var (
		eng  *seqlog.Engine
		c    *httpclient.Client
		base = strings.TrimRight(*srvURL, "/")
	)
	if *srvURL != "" {
		c = &httpclient.Client{Retries: *retries}
	} else {
		var err error
		if eng, err = seqlog.Open(f.Config); err != nil {
			fatal(err)
		}
		defer eng.Close()
	}
	ctx, cancel := lim.context()
	defer cancel()

	switch verb {
	case "detect", "traces":
		req, limit := detectFlags(verb, rest)
		var resp server.DetectResponse
		if c != nil {
			req.QueryOverrides = lim.overrides()
			if err := c.PostJSON(base+"/detect", req, &resp); err != nil {
				fatal(err)
			}
		} else {
			ms, err := eng.Detect(ctx, req.Pattern, req.DetectOptions)
			if err != nil && !seqlog.Truncated(err) {
				fatal(err)
			}
			resp = server.DetectResponse{Matches: ms, Traces: seqlog.Traces(ms), Truncated: err != nil}
		}
		if resp.Truncated {
			fmt.Println("row budget exceeded; results are truncated")
		}
		if req.TracesOnly {
			printTraces(resp.Traces, limit)
		} else {
			printMatches(resp.Matches, limit)
		}

	case "stats":
		req := statsFlags(rest)
		var st seqlog.PatternStats
		var err error
		if c != nil {
			req.QueryOverrides = lim.overrides()
			err = c.PostJSON(base+"/stats", req, &st)
		} else {
			st, err = eng.Stats(ctx, req.Pattern, req.StatsOptions)
		}
		if err != nil {
			fatal(err)
		}
		printStats(st)

	case "explore":
		req, limit := exploreFlags(rest)
		var resp struct {
			Proposals []seqlog.Proposal `json:"proposals"`
		}
		var err error
		if c != nil {
			req.QueryOverrides = lim.overrides()
			err = c.PostJSON(base+"/explore", req, &resp)
		} else {
			resp.Proposals, err = eng.Explore(ctx, req.Pattern, req.ExploreOptions)
		}
		if err != nil {
			fatal(err)
		}
		printProposals(resp.Proposals, limit)

	case "info":
		var info seqlog.IndexInfo
		var err error
		if c != nil {
			err = c.GetJSON(base+"/info", &info)
		} else {
			info, err = eng.Info()
		}
		if err != nil {
			fatal(err)
		}
		printInfo(info)

	case "metrics":
		if c == nil {
			// Run the queries first (in a script: earlier in the process),
			// then dump the engine registry — the local-mode twin of GET
			// /metrics.
			if err := eng.Metrics().WritePrometheus(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		resp, err := c.Get(base + "/metrics")
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			fatal(fmt.Errorf("GET /metrics: %s (is the server running with -metrics?)", resp.Status))
		}
		if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
			fatal(err)
		}

	default:
		fatal(fmt.Errorf("unknown verb %q", verb))
	}
}

// limits carries the shared query-bound flags into both modes.
type limits struct {
	timeoutMS  int64
	budgetRows int64
	partial    bool
}

// context builds the local-mode query context: a deadline plus row limits,
// exactly what the server builds for its own handlers.
func (l limits) context() (context.Context, context.CancelFunc) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if l.timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(l.timeoutMS)*time.Millisecond)
	}
	if l.budgetRows > 0 || l.partial {
		ctx = seqlog.WithLimits(ctx, seqlog.Limits{MaxRows: l.budgetRows, Partial: l.partial})
	}
	return ctx, cancel
}

// overrides maps the flags onto the per-request knobs of server mode (the
// server clamps them against its own -query-* caps).
func (l limits) overrides() server.QueryOverrides {
	o := server.QueryOverrides{TimeoutMS: l.timeoutMS, BudgetRows: l.budgetRows}
	if l.partial {
		p := true
		o.Partial = &p
	}
	return o
}

// ---- verb flags, parsed into the request bodies both modes use -------------

func detectFlags(verb string, rest []string) (req server.DetectRequest, limit int) {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	fs.BoolVar(&req.Scan, "scan", false, "use the exact per-trace scan instead of the index join")
	fs.Int64Var(&req.Within, "within", 0, "keep only completions spanning at most this many ms (0 = off)")
	fs.IntVar(&limit, "limit", 20, "max rows to print")
	fs.Parse(rest)
	req.Pattern, req.TracesOnly = need(fs.Args(), 2), verb == "traces"
	return req, limit
}

func statsFlags(rest []string) (req server.StatsRequest) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	fs.BoolVar(&req.AllPairs, "all-pairs", false, "bound with every ordered pattern pair (tighter, O(p²) reads)")
	fs.Parse(rest)
	req.Pattern = need(fs.Args(), 2)
	return req
}

func exploreFlags(rest []string) (req server.ExploreRequest, limit int) {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	fs.StringVar((*string)(&req.Mode), "mode", string(seqlog.Hybrid), "accurate, fast or hybrid")
	fs.IntVar(&req.TopK, "topk", 5, "hybrid: candidates to re-check accurately")
	fs.Float64Var(&req.MaxAvgGap, "maxgap", 0, "drop candidates with mean gap above this (0 = off)")
	pos := fs.Int("pos", -1, "insert the candidate at this position instead of appending (-1 = append)")
	fs.IntVar(&limit, "limit", 20, "max rows to print")
	fs.Parse(rest)
	if *pos >= 0 {
		req.Position = pos
	}
	req.Pattern = need(fs.Args(), 1)
	return req, limit
}

// ---- output, shared between local and server mode -------------------------

func printMatches(ms []seqlog.Match, limit int) {
	fmt.Printf("%d completions\n", len(ms))
	for i, m := range ms {
		if i >= limit {
			fmt.Printf("... and %d more\n", len(ms)-limit)
			break
		}
		fmt.Printf("trace %d at %v\n", m.Trace, m.Times)
	}
}

func printTraces(ids []int64, limit int) {
	fmt.Printf("%d traces contain the pattern\n", len(ids))
	for i, id := range ids {
		if i >= limit {
			fmt.Printf("... and %d more\n", len(ids)-limit)
			break
		}
		fmt.Println(id)
	}
}

func printStats(st seqlog.PatternStats) {
	for _, ps := range st.Pairs {
		fmt.Printf("(%s -> %s): completions=%d avg_duration=%.2fms last=%d\n",
			ps.First, ps.Second, ps.Completions, ps.AvgDuration, ps.LastCompletion)
	}
	fmt.Printf("pattern completions <= %d, estimated duration %.2fms\n",
		st.MaxCompletions, st.EstimatedDuration)
}

func printProposals(props []seqlog.Proposal, limit int) {
	for i, p := range props {
		if i >= limit {
			break
		}
		kind := "approx"
		if p.Exact {
			kind = "exact"
		}
		fmt.Printf("%2d. %-20s completions=%-6d avg=%.2fms score=%.4f (%s)\n",
			i+1, p.Activity, p.Completions, p.AvgDuration, p.Score, kind)
	}
}

func printInfo(info seqlog.IndexInfo) {
	status := "ok"
	if info.Degraded {
		status = "degraded (salvaged recovery)"
	}
	role := info.Role
	if role == "" {
		role = "primary"
	}
	fmt.Printf("traces=%d activities=%d policy=%s status=%s role=%s\n",
		info.Traces, info.Activities, info.Policy, status, role)
	if r := info.Replication; r != nil {
		fmt.Printf("replication: primary=%s state=%s epoch=%d offset=%d lag=%dB applied=%d resyncs=%d\n",
			r.Primary, r.State, r.Epoch, r.Offset, r.LagBytes, r.AppliedGroups, r.Resyncs)
		if r.LastError != "" {
			fmt.Printf("replication last error: %s\n", r.LastError)
		}
	}
	parts := make([]string, 0, len(info.Partitions))
	for p := range info.Partitions {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	for _, p := range parts {
		name := p
		if name == "" {
			name = "(default)"
		}
		fmt.Printf("partition %s: %d pairs\n", name, info.Partitions[p])
	}
	if st := info.Ingest; st != nil {
		fmt.Printf("ingest: queued=%d flushed=%d batches=%d syncs=%d stalls=%d sessions=%d\n",
			st.Queued, st.Flushed, st.Batches, st.Syncs, st.Stalls, st.Sessions)
	}
	if sg := info.Segments; sg.Segments > 0 {
		fmt.Printf("segments: files=%d rows=%d entries=%d bytes=%d freezes=%d\n",
			sg.Segments, sg.Rows, sg.Entries, sg.Bytes, sg.Freezes)
	}
}

// need exits with usage help when the pattern has fewer than min activities.
func need(pattern []string, min int) []string {
	if len(pattern) < min {
		fmt.Fprintf(os.Stderr, "seqquery: pattern needs at least %d activities\n", min)
		os.Exit(2)
	}
	return pattern
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqquery:", err)
	os.Exit(1)
}
