package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started. Its stdout and
// stderr (the access log included) go to a file in the work directory.
type proc struct {
	name string
	cmd  *exec.Cmd
	base string // http://host:port once ready
	done chan struct{}
}

var listenLine = regexp.MustCompile(`listening on (\S+) `)

// startProc launches binDir/bin with -addr 127.0.0.1:0 and waits for
// its "listening on" line, which carries the port the kernel chose. The
// output comes through a pipe, so the line is seen the moment it is
// written: set-up time carries no polling interval.
func startProc(binDir, workDir, name, bin string, args ...string) (*proc, error) {
	logFile, err := os.Create(filepath.Join(workDir, name+".log"))
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, bin), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = w, w
	err = cmd.Start()
	w.Close() // the child holds its own descriptor
	if err != nil {
		r.Close()
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	listening := make(chan string, 1) // one send, never waited on after start-up
	var head strings.Builder          // output before the listen line, for errors
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		defer r.Close()
		defer logFile.Close()
		sc := bufio.NewScanner(r)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if found {
				continue
			}
			if m := listenLine.FindStringSubmatch(line + " "); m != nil {
				found = true
				listening <- "http://" + m[1]
			} else if head.Len() < 4096 {
				head.WriteString(line + "\n")
			}
		}
	}()
	go func() {
		_ = cmd.Wait() // the exit status is read through ProcessState
		<-copied
		close(p.done)
	}()
	select {
	case p.base = <-listening:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited during start-up: %s\n%s", name, cmd.ProcessState, head.String())
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s printed no listen address within 20s", name)
	}
}

// stop sends SIGTERM, waits up to ten seconds for the drain, then
// kills; it returns once the process has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// procCPUms reads a process's CPU time (utime+stime) in milliseconds.
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	fs := strings.Fields(rest)
	if len(fs) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(fs[11], 64)
	st, err2 := strconv.ParseFloat(fs[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on every Linux ABI Go supports
	return (ut + st) * 1000 / clkTck, nil
}

// procHWMmb reads a process's peak resident set (VmHWM) in MiB.
func procHWMmb(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fleet is the set of server processes one workload runs against.
type fleet struct {
	procs    []*proc
	replicas []string // makespand base URLs
	base     string   // where clients send requests
}

// launch starts the workload's servers and returns once they answer
// /healthz (and, behind an lb, once every replica is on the ring).
func launch(w *workload, binDir, workDir string) (*fleet, error) {
	f := &fleet{}
	n := max(w.replicas, 1)
	for i := 0; i < n; i++ {
		p, err := startProc(binDir, workDir, fmt.Sprintf("makespand-%d", i), "makespand",
			"-workers", strconv.Itoa(w.workers), "-cache-bytes", strconv.FormatInt(w.cacheBytes, 10))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		f.replicas = append(f.replicas, p.base)
	}
	f.base = f.replicas[0]
	if w.replicas > 0 {
		p, err := startProc(binDir, workDir, "makespan-lb", "makespan-lb", "-replicas", strings.Join(f.replicas, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		f.base = p.base
	}
	if err := waitReady(f.base, w.replicas); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// waitReady polls base/healthz until it answers 200 and, for an lb,
// reports at least ring replicas on its ring.
func waitReady(base string, ring int) error {
	deadline := time.Now().Add(20 * time.Second)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		if resp, err := c.Get(base + "/healthz"); err == nil {
			var h struct {
				RingReplicas int `json:"ring_replicas"`
			}
			err := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.RingReplicas >= ring {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not ready within 20s", base)
}

func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

// cpuMS sums the fleet's CPU time so far.
func (f *fleet) cpuMS() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		v, err := procCPUms(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// hwmMB sums the fleet's peak resident sets.
func (f *fleet) hwmMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		v, err := procHWMmb(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}
