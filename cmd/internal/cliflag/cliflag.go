// Package cliflag declares the flags the seqlog binaries share, once each,
// bound straight into a seqlog.Config and a server.Options. A binary
// registers the groups it takes: the store flags it names, the ingest
// flags and the server limits.
package cliflag

import (
	"flag"
	"strconv"
	"strings"
	"time"

	"seqlog"
	"seqlog/internal/server"
)

// Flags binds one binary's shared flags.
type Flags struct {
	Config seqlog.Config
	// Server starts at the serving defaults of seqserver; a front end
	// without -max-body-mb or -shutdown-timeout keeps them.
	Server server.Options
	fs     *flag.FlagSet
}

// New binds shared flags on fs.
func New(fs *flag.FlagSet) *Flags {
	return &Flags{fs: fs, Server: server.Options{
		MaxBodyBytes:    server.DefaultMaxBodyBytes,
		ShutdownTimeout: server.DefaultShutdownTimeout,
	}}
}

// Store registers the named store flags: where the store lives, how it is
// built, and how it is opened and cached.
func (f *Flags) Store(names ...string) {
	c := &f.Config
	for _, name := range names {
		switch name {
		case "dir":
			f.fs.StringVar(&c.Dir, name, "", "store directory (empty = in-memory)")
		case "shard-dir":
			f.fs.StringVar(&c.ShardDir, name, "", "base directory for shard-NNNN stores (default: -dir; recorded in -dir)")
		case "shards":
			f.fs.IntVar(&c.Shards, name, 0, "split the index across N independent stores (0 = what the store pins, 1 for a new store)")
		case "policy":
			f.fs.StringVar(&c.Policy, name, "", "pair policy, SC or STNM (empty = what the store pins, STNM for a new store)")
		case "partial":
			f.fs.BoolVar(&c.PartialOrder, name, false, "treat same-timestamp events as concurrent (partial order, STNM only; off = what the store pins)")
		case "segments":
			f.fs.Bool(name, false, "accepted and ignored: a durable store always freezes its postings into segments before it compacts")
		case "salvage":
			f.fs.BoolVar(&c.Salvage, name, false, "recover a corrupt store by quarantining unreadable regions instead of failing")
		case "cache-mb":
			f.fs.Var((*MiB)(&c.CacheBytes), name, "decoded-postings cache budget in `MiB` of the stores this process opens; a shard server's is set only by its own seqshard -cache-mb (0 = default 64, negative disables)")
		default:
			panic("cliflag: no store flag " + name)
		}
	}
}

// Ingest registers the ingestion-pipeline flags.
func (f *Flags) Ingest() {
	c := &f.Config
	f.fs.IntVar(&c.Workers, "ingest-workers", 0, "ingestion shard workers (0 = all cores)")
	f.fs.IntVar(&c.FlushEvents, "flush-events", 0, "ingestion flush threshold in events (0 = default 1024)")
	f.fs.DurationVar(&c.FlushInterval, "flush-interval", 0, "ingestion flush age bound (0 = default 50ms)")
	f.fs.IntVar(&c.IngestQueue, "flush-queue", 0, "ingestion admission queue in events (0 = default 4x flush-events)")
}

// Limits registers the HTTP server's request limits and its /metrics
// switch.
func (f *Flags) Limits() {
	o := &f.Server
	f.fs.DurationVar(&o.RequestTimeout, "request-timeout", 30*time.Second, "per-request handling timeout (0 disables)")
	f.fs.Var((*Millis)(&o.QueryTimeout), "query-timeout-ms", "per-query deadline in `ms`; the query is aborted cooperatively, not abandoned (0 disables; requests may only tighten it)")
	f.fs.Int64Var(&o.QueryBudgetRows, "query-budget-rows", 0, "per-query row budget; exceeding it fails the query with 503 (0 disables; requests may only tighten it)")
	f.fs.BoolFunc("metrics", "expose GET /metrics, Prometheus text format (default true; -metrics=false hides it)", func(v string) error {
		on, err := strconv.ParseBool(v)
		o.DisableMetricsEndpoint = !on
		return err
	})
}

// MiB reads a size in MiB into a byte count. A negative size reads as -1,
// the "disabled" value of the options it sets.
type MiB int64

func (m *MiB) String() string {
	if *m < 0 {
		return strconv.FormatInt(int64(*m), 10)
	}
	return strconv.FormatInt(int64(*m)>>20, 10)
}

func (m *MiB) Set(v string) error {
	mb, err := strconv.ParseInt(v, 10, 64)
	if mb < 0 {
		mb = -1
	} else {
		mb <<= 20
	}
	*m = MiB(mb)
	return err
}

// Millis reads a count of milliseconds into a duration.
type Millis time.Duration

func (d *Millis) String() string {
	return strconv.FormatInt(time.Duration(*d).Milliseconds(), 10)
}

func (d *Millis) Set(v string) error {
	ms, err := strconv.ParseInt(v, 10, 64)
	*d = Millis(time.Duration(ms) * time.Millisecond)
	return err
}

// List collects comma-separated values, and repeated flags, into a slice.
type List []string

func (l *List) String() string { return strings.Join(*l, ",") }

func (l *List) Set(v string) error {
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			*l = append(*l, s)
		}
	}
	return nil
}
