package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dagsched/internal/sim"
)

// daemon is one spaa-serve child process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	debugAddr string // "" unless started with a debug listener
	walDir    string
	stdout    bytes.Buffer
	stderr    bytes.Buffer
	exited    chan error
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches bin with args plus its listen address and WAL
// directory, and returns once /readyz answers 200, with the CPU time the
// daemon spent getting there. CPU time, not wall time: on a host whose
// hypervisor steals a varying share of the CPU, a few milliseconds of
// start-up repeat in CPU time and not in wall time.
func startDaemon(bin string, args []string, walDir string, debug bool) (*daemon, time.Duration, error) {
	d := &daemon{walDir: walDir, exited: make(chan error, 1)}
	var err error
	if d.addr, err = freeAddr(); err != nil {
		return nil, 0, err
	}
	full := append([]string{"-addr", d.addr, "-wal-dir", walDir, "-log-level", "warn"}, args...)
	if debug {
		if d.debugAddr, err = freeAddr(); err != nil {
			return nil, 0, err
		}
		full = append(full, "-debug-addr", d.debugAddr)
	}
	d.cmd = exec.Command(bin, full...)
	// The daemon dies with the benchmark, whatever ends it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stdout = &d.stdout
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	running.Store(d, true)
	deadline := t0.Add(30 * time.Second)
	for {
		if resp, err := scrapeClient.Get("http://" + d.addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-d.exited:
			return nil, 0, fmt.Errorf("spaa-serve exited before ready: %v: %s", err, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("spaa-serve not ready after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	ready, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	if debug {
		if err := waitListening(d.debugAddr, deadline); err != nil {
			d.kill()
			return nil, 0, err
		}
	}
	return d, ready, nil
}

func waitListening(addr string, deadline time.Time) error {
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not listening: %w", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// running holds every daemon started and not yet reaped, for killAll.
var running sync.Map

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	running.Delete(d)
}

// killAll kills and reaps every daemon still running; main calls it
// before exiting on any path.
func killAll() {
	running.Range(func(k, _ any) bool {
		k.(*daemon).kill()
		return true
	})
}

// drain sends SIGTERM and returns the final Result the daemon prints.
func (d *daemon) drain() (*sim.Result, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	defer running.Delete(d)
	select {
	case err := <-d.exited:
		if err != nil {
			return nil, fmt.Errorf("spaa-serve: %v: %s", err, d.stderr.String())
		}
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("spaa-serve did not drain within 60s")
	}
	var res sim.Result
	if err := json.Unmarshal(d.stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("drained Result: %w", err)
	}
	return &res, nil
}

func (d *daemon) get(addr, path string) ([]byte, error) {
	resp, err := scrapeClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// procSnap is what /proc says about the daemon at one instant.
type procSnap struct {
	at  time.Time
	cpu time.Duration // user + system
	hwm int64         // peak resident set, bytes
}

func readProc(pid int) (procSnap, error) {
	s := procSnap{at: time.Now()}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	s.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return s, fmt.Errorf("bad VmHWM %q", v)
			}
			s.hwm = kb << 10
		}
	}
	return s, sc.Err()
}

// procCPU is a process's CPU time to the nanosecond: the sum over its
// threads of the run time in /proc/<pid>/task/<tid>/schedstat. (The
// /proc/<pid>/stat times count in 10 ms ticks, too coarse for a start-up.)
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// selfCPU is the benchmark process's own CPU time, from getrusage, which
// Linux reports to the microsecond.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// prom is one /metrics scrape: sample name (with labels) → value.
type prom map[string]float64

func parseProm(b []byte) prom {
	p := make(prom)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	return p
}

// sum adds every sample of the family name whose labels contain all of
// the given label pairs (each written as key="value").
func (p prom) sum(name string, labels ...string) float64 {
	var s float64
	for k, v := range p {
		base, lbl, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			s += v
		}
	}
	return s
}

// scrape reads /metrics and /proc together, as one phase boundary.
type scrape struct {
	m    prom
	proc procSnap
}

func (d *daemon) scrape() (scrape, error) {
	body, err := d.get(d.addr, "/metrics")
	if err != nil {
		return scrape{}, err
	}
	ps, err := readProc(d.cmd.Process.Pid)
	return scrape{m: parseProm(body), proc: ps}, err
}

// histMean is the mean of a histogram family over a phase, from the
// _sum/_count deltas of two scrapes.
func histMean(a, b prom, name string, labels ...string) float64 {
	n := b.sum(name+"_count", labels...) - a.sum(name+"_count", labels...)
	if n <= 0 {
		return 0
	}
	return (b.sum(name+"_sum", labels...) - a.sum(name+"_sum", labels...)) / n
}

func delta(a, b prom, name string, labels ...string) float64 {
	return b.sum(name, labels...) - a.sum(name, labels...)
}
