package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverBinaries are the product programs the benchmark drives.
var serverBinaries = []string{"seqserver", "seqshard", "seqrouter"}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// buildBinaries compiles the product binaries from the checkout's source
// into binDir. The go build cache makes a repeat build a sub-second no-op.
func buildBinaries(root, binDir string) error {
	args := []string{"build", "-o", binDir + string(os.PathSeparator)}
	for _, b := range serverBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// proc is one spawned server process.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once Wait returned
}

// spawn starts bin with args, its output going to logPath. Pdeathsig makes
// the kernel kill the child if the benchmark dies without cleaning up.
func spawn(name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	logf.Close() // the child holds its own descriptor
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down cleanly and waits; a process that has
// not exited after the grace period is killed.
func (p *proc) stop() {
	if !p.exited() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
		}
	}
	p.kill()
}

// kill is SIGKILL plus wait: the crash of the acked-readable-after-kill check.
func (p *proc) kill() {
	if !p.exited() {
		p.cmd.Process.Kill()
	}
	<-p.done
}

func (p *proc) logTail(n int) string {
	raw, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// clockTick is USER_HZ: the kernel ABI fixes it at 100 on every Linux port Go
// supports, which is why procfs needs no sysconf call.
const clockTick = 100

// cpuMS returns utime+stime of the process in milliseconds.
func (p *proc) cpuMS() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 1000 / clockTick
}

// peakRSSMB returns VmHWM in MiB.
func (p *proc) peakRSSMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPUMS is the benchmark process's own CPU time, for loadgen.cpu_frac.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// freeAddr reserves a loopback port by binding and releasing it. The servers
// take their address as a flag and seqserver does not report a :0 choice, so
// the benchmark picks; the window between release and the child's bind is
// harmless on a host that runs one benchmark at a time.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitReady polls until check succeeds, the process exits or time runs out.
func waitReady(p *proc, check func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := check()
		if err == nil {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.logTail(10))
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s: %w\n%s", p.name, err, p.logTail(10))
		}
		time.Sleep(time.Millisecond)
	}
}

func httpHealthy(client *http.Client, base string) func() error {
	return func() error {
		resp, err := client.Get(base + "/health")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /health: %s", resp.Status)
		}
		return nil
	}
}

func tcpAccepts(addr string) func() error {
	return func() error {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return err
		}
		return c.Close()
	}
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
