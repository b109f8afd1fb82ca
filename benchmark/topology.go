package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runner carries what every workload needs.
type runner struct {
	home    string // the benchmark's own directory
	binDir  string
	tmp     string // removed when the run ends
	hc      *http.Client
	seed    int64
	seconds float64
	smoke   bool
	trace   bool
	record  *runRecord
	ntmp    int
	procs   []*proc // everything spawned, so nothing can outlive the run
	spans   spanLog

	writePins bool
	newPins   pins
}

// spawn starts a product binary and registers it for the run record and for
// the final sweep that stops whatever an error path left running. name is
// the binary's name, optionally followed by "-" and a role.
func (r *runner) spawn(name, logPath string, args ...string) (*proc, error) {
	bin, _, _ := strings.Cut(name, "-")
	p, err := spawn(name, filepath.Join(r.binDir, bin), logPath, args...)
	if err != nil {
		return nil, err
	}
	r.procs = append(r.procs, p)
	r.record.Processes = append(r.record.Processes, procInfo{Name: name, Pid: p.cmd.Process.Pid, Args: args})
	return p, nil
}

// stopAll stops every process still running.
func (r *runner) stopAll() {
	for i := len(r.procs) - 1; i >= 0; i-- {
		r.procs[i].stop()
	}
}

func (r *runner) tmpDir(prefix string) (string, error) {
	r.ntmp++
	dir := filepath.Join(r.tmp, fmt.Sprintf("%s-%d", prefix, r.ntmp))
	return dir, os.MkdirAll(dir, 0o755)
}

func (r *runner) window() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}

// setups is how often a run sets up. setup_s is the median of that many, so
// one slow fsync does not read as a set-up regression; smoke and traced runs
// report no setup_s worth bounding and set up once.
func (r *runner) setups() int {
	if r.smoke || r.trace {
		return 1
	}
	return 3
}

// topology is a running set of server processes.
type topology struct {
	procs []*proc // in start order; stopped in reverse, front ends first
	// base takes every request of a single-server topology and the writes of
	// a fleet; readBase takes a fleet's reads.
	base, readBase string
	dirs           []string // data directories
	shardAddrs     []string // fleet only
	// /metrics of the processes that answer HTTP requests and of those that
	// own a store. One seqserver is both; a fleet's front ends repeat their
	// shards' cache counters, so each counter is read from one side only.
	frontMetrics, storeMetrics []string
}

func (tp *topology) stop() {
	for i := len(tp.procs) - 1; i >= 0; i-- {
		tp.procs[i].stop()
	}
}

func (tp *topology) cpuMS() float64 {
	var ms float64
	for _, p := range tp.procs {
		ms += p.cpuMS()
	}
	return ms
}

func (tp *topology) peakRSSMB() float64 {
	var mb float64
	for _, p := range tp.procs {
		mb += p.peakRSSMB()
	}
	return mb
}

// startServer starts one durable seqserver over dir.
func (r *runner) startServer(dir string, cacheMB int) (*topology, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-dir", dir, "-segments", "-addr", addr}
	if cacheMB != 0 {
		args = append(args, "-cache-mb", fmt.Sprint(cacheMB))
	}
	p, err := r.spawn("seqserver", dir+".log", args...)
	if err != nil {
		return nil, err
	}
	base := "http://" + addr
	tp := &topology{procs: []*proc{p}, base: base, readBase: base, dirs: []string{dir},
		frontMetrics: []string{base + "/metrics"}, storeMetrics: []string{base + "/metrics"}}
	if err := waitReady(p, httpHealthy(r.hc, base)); err != nil {
		tp.stop()
		return nil, err
	}
	return tp, nil
}

const fleetShards = 2

func shardDir(base string, i int) string {
	// The name a local sharded engine gives shard i, so the same
	// directories open in-process (Config.Shards) and under seqshard.
	return filepath.Join(base, fmt.Sprintf("shard-%04d", i))
}

// startShards starts one durable seqshard per shard directory under base.
func (r *runner) startShards(base string) (*topology, error) {
	tp := &topology{}
	for i := 0; i < fleetShards; i++ {
		addr, err := freeAddr()
		if err != nil {
			tp.stop()
			return nil, err
		}
		maddr, err := freeAddr()
		if err != nil {
			tp.stop()
			return nil, err
		}
		dir := shardDir(base, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			tp.stop()
			return nil, err
		}
		p, err := r.spawn(fmt.Sprintf("seqshard-%d", i), dir+".log",
			"-addr", addr, "-dir", dir, "-segments", "-metrics-addr", maddr)
		if err != nil {
			tp.stop()
			return nil, err
		}
		tp.procs = append(tp.procs, p)
		tp.dirs = append(tp.dirs, dir)
		tp.shardAddrs = append(tp.shardAddrs, addr)
		tp.storeMetrics = append(tp.storeMetrics, "http://"+maddr+"/metrics")
		if err := waitReady(p, tcpAccepts(addr)); err != nil {
			tp.stop()
			return nil, err
		}
	}
	return tp, nil
}

// startFleet starts the shards under base and two front ends over them: a
// seqrouter coordinator, which takes the writes, and a read-only seqserver
// replica, which takes the reads. README.md ("known failures") says why the
// reads do not share the coordinator.
func (r *runner) startFleet(base string) (*topology, error) {
	tp, err := r.startShards(base)
	if err != nil {
		return nil, err
	}
	front := func(name, addrFlag string, args ...string) (string, error) {
		addr, err := freeAddr()
		if err != nil {
			return "", err
		}
		p, err := r.spawn(name, filepath.Join(base, name+".log"), append([]string{addrFlag, addr}, args...)...)
		if err != nil {
			return "", err
		}
		tp.procs = append(tp.procs, p)
		url := "http://" + addr
		tp.frontMetrics = append(tp.frontMetrics, url+"/metrics")
		return url, waitReady(p, httpHealthy(r.hc, url))
	}
	mapPath := filepath.Join(base, "shards.txt")
	if err := os.WriteFile(mapPath, []byte(strings.Join(tp.shardAddrs, "\n")+"\n"), 0o644); err != nil {
		tp.stop()
		return nil, err
	}
	if tp.base, err = front("seqrouter", "-listen", "-shard-map", mapPath); err != nil {
		tp.stop()
		return nil, err
	}
	if tp.readBase, err = front("seqserver-replica", "-addr", "-read-only",
		"-shard-addrs", strings.Join(tp.shardAddrs, ",")); err != nil {
		tp.stop()
		return nil, err
	}
	return tp, nil
}
