package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"

	"seqlog"
	"seqlog/internal/server"
)

// ask runs t against an in-process engine the way the HTTP handler would and
// returns the value the handler would encode.
func ask(eng *seqlog.Engine, t *template) (any, error) {
	ctx := context.Background()
	switch t.kind {
	case opDetect:
		var ms []seqlog.Match
		var err error
		if t.within > 0 {
			ms, err = eng.DetectWithinCtx(ctx, t.pattern, t.within)
		} else {
			ms, err = eng.DetectCtx(ctx, t.pattern)
		}
		return server.DetectResponse{Matches: ms}, err
	case opStats:
		return eng.StatsCtx(ctx, t.pattern)
	case opExplore:
		props, err := eng.ExploreCtx(ctx, t.pattern, t.mode, seqlog.ExploreOptions{})
		return exploreResponse{Proposals: props}, err
	}
	return nil, fmt.Errorf("no oracle for %s", opKindNames[t.kind])
}

// answer is the canonical response the HTTP API must give for t.
func answer(eng *seqlog.Engine, t *template) ([]byte, error) {
	resp, err := ask(eng, t)
	if err != nil {
		return nil, err
	}
	return mustJSON(resp), nil
}

// fillExpected computes the expected answer of every template with the
// reference engine, on all cores.
func fillExpected(eng *seqlog.Engine, templates []*template) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	work := make(chan *template)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range work {
				canon, err := answer(eng, t)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("oracle %s %s: %w", opPaths[t.kind], t.body, err)
					}
					mu.Unlock()
					continue
				}
				t.want, t.hasWant = crc32.Checksum(canon, castagnoli), true
			}
		}()
	}
	for _, t := range templates {
		work <- t
	}
	close(work)
	wg.Wait()
	return first
}
