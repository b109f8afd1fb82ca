package seqlog

import (
	"errors"
	"strings"

	"seqlog/internal/kvstore"
	"seqlog/internal/replica"
	"seqlog/internal/storage"
)

// ErrReadOnly rejects local mutations on a read-only engine (a replica): the
// only writer of a follower's store is the replication applier, so Ingest,
// PruneTraces, RotatePeriod, DropPeriod, Freeze and OpenStream all answer
// this error. The HTTP layer maps it to 403.
var ErrReadOnly = errors.New("seqlog: engine is read-only (replica)")

// readOnlyErr gates a mutation entry point.
func (e *Engine) readOnlyErr() error {
	if e.cfg.ReadOnly {
		return ErrReadOnly
	}
	return nil
}

// ReplicaSource exposes the engine's store for downstream replication — the
// primary side of log shipping, mounted under /replicate by the HTTP server.
// Only single-store durable engines can serve replication (sharded engines
// would need one stream per shard); ok reports whether this engine qualifies.
// A follower qualifies too, so replicas can chain.
func (e *Engine) ReplicaSource() (*replica.Source, bool) {
	d, tab, ok := e.replicaPair()
	if !ok {
		return nil, false
	}
	return &replica.Source{Store: d, Tables: tab}, true
}

// replicaPair returns the single durable store and its concrete tables, the
// two handles both replication directions need.
func (e *Engine) replicaPair() (*kvstore.DiskStore, *storage.Tables, bool) {
	if len(e.disks) != 1 {
		return nil, nil, false
	}
	tab, ok := e.tables.(*storage.Tables)
	if !ok {
		return nil, nil, false
	}
	return e.disks[0], tab, true
}

// StartFollower turns this engine into a live read replica of the primary at
// the given base URL. The engine must have been opened read-only (so nothing
// but the replication applier writes the store) and with a single durable
// store. Replication runs until Close; progress is observable through
// Replication and the seqlog_replica_* metrics.
func (e *Engine) StartFollower(primary string, opt replica.Options) error {
	if !e.cfg.ReadOnly {
		return errors.New("seqlog: StartFollower requires Config.ReadOnly")
	}
	_, tab, ok := e.replicaPair()
	if !ok {
		return errors.New("seqlog: StartFollower requires a single durable store (Config.Dir, Shards <= 1)")
	}
	if e.follower != nil {
		return errors.New("seqlog: follower already started")
	}
	if opt.Metrics == nil {
		opt.Metrics = e.metrics
	}
	userHook := opt.OnApply
	opt.OnApply = func(recs []kvstore.Record) {
		e.refreshAfterApply(recs)
		if userHook != nil {
			userHook(recs)
		}
	}
	e.follower = replica.Start(strings.TrimRight(primary, "/"), tab, opt)
	return nil
}

// Replication reports the follower's replication position, or nil when this
// engine is not following anyone.
func (e *Engine) Replication() *replica.Stats {
	if e.follower == nil {
		return nil
	}
	st := e.follower.Stats()
	return &st
}

// Role names this engine's place in a replication topology: "follower" when
// it tails a primary, "primary" otherwise (a standalone engine is just a
// primary nobody follows yet).
func (e *Engine) Role() string {
	if e.follower != nil {
		return "follower"
	}
	return "primary"
}

// refreshAfterApply reconciles engine-level in-memory state with a replicated
// group: the interned alphabet, and how the store was built. A shipped put of
// the alphabet meta key means the primary interned new activity names, and
// queries on this replica must resolve them. Names are stored \x00-joined in
// ID order, so re-interning in storage order assigns the same dense IDs the
// primary uses. A shipped policy or order key is the primary's pin, which a
// replica that opened an empty store adopts.
func (e *Engine) refreshAfterApply(recs []kvstore.Record) {
	var alphabet, built bool
	for _, r := range recs {
		if r.Op != kvstore.OpPut || r.Table != storage.MetaTable {
			continue
		}
		switch r.Key {
		case metaAlphabet:
			alphabet = true
		case metaPolicy, metaPartial:
			built = true
		}
	}
	if built {
		if rule, _, _, err := e.storedRule(); err == nil {
			e.built.Store(&rule)
		}
	}
	if !alphabet {
		return
	}
	raw, ok, err := e.tables.GetMeta(metaAlphabet)
	if err != nil || !ok || len(raw) == 0 {
		return
	}
	for _, name := range strings.Split(string(raw), "\x00") {
		e.alphabet.ID(name)
	}
}
