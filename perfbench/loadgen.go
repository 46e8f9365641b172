package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// conn is a lean HTTP/1.1 client on one persistent TCP connection:
// pre-built request bytes out, a hand-rolled response reader in. The
// generator shares the host with the daemon, so net/http's client machinery
// (per-request goroutines, header maps, body plumbing) would bill its own
// CPU to the server's latency. The bytes on the wire are ordinary HTTP.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte // response body scratch, valid until the next read
	jobs chan sent
}

// sent hands one written request to the connection's reader.
type sent struct {
	i  int
	at time.Time
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	if c.c != nil {
		c.c.Close()
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		c.c = nil
		return err
	}
	c.c = nc
	c.br = bufio.NewReaderSize(nc, 64<<10)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

func (c *conn) write(req []byte) error {
	if c.c == nil {
		return fmt.Errorf("connection to %s is down", c.addr)
	}
	_, err := c.c.Write(req)
	return err
}

// read reads one response (identity or chunked framing). The body aliases
// the connection's scratch buffer.
func (c *conn) read() (status int, body []byte, err error) {
	if c.c == nil {
		return 0, nil, fmt.Errorf("connection to %s is down", c.addr)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	clen, chunked := -1, false
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		if v, ok := cutHeader(h, "content-length:"); ok {
			if clen, err = strconv.Atoi(v); err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", v)
			}
		} else if v, ok := cutHeader(h, "transfer-encoding:"); ok && v == "chunked" {
			chunked = true
		}
	}
	c.buf = c.buf[:0]
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				_, err := c.br.Discard(2)
				return status, c.buf, err
			}
			off := len(c.buf)
			c.buf = append(c.buf, make([]byte, n)...)
			if _, err := io.ReadFull(c.br, c.buf[off:]); err != nil {
				return 0, nil, err
			}
			if _, err := c.br.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case clen > 0:
		if cap(c.buf) < clen {
			c.buf = make([]byte, clen)
		}
		c.buf = c.buf[:clen]
		if _, err := io.ReadFull(c.br, c.buf); err != nil {
			return 0, nil, err
		}
	}
	return status, c.buf, nil
}

func cutHeader(h []byte, name string) (string, bool) {
	if len(h) < len(name) || !bytes.EqualFold(h[:len(name)], []byte(name)) {
		return "", false
	}
	return string(bytes.TrimSpace(h[len(name):])), true
}

func httpRequest(method, path, headers string, body []byte) []byte {
	b := make([]byte, 0, 128+len(headers)+len(body))
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	b = append(b, headers...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// sample is one open-loop request's timing. All durations are measured on
// the monotonic clock.
type sample struct {
	lag    time.Duration // generator lateness: woke − max(due, previous dispatch)
	wait   time.Duration // time spent waiting for a free connection
	lat    time.Duration // completion − due: what a client that meant to send at due sees
	svc    time.Duration // completion − write: the round trip alone
	failed bool
}

// lagAndWait splits the delay between a request's due instant and its
// dispatch into generator lateness and connection wait. A request that fell
// due while the sender was still blocked on the previous one's connection
// is late because the connections were busy, not because the generator
// overslept, so its lateness counts from the previous dispatch.
func lagAndWait(due, prevDispatch, woke, gotConn time.Time) (lag, wait time.Duration) {
	ready := due
	if prevDispatch.After(ready) {
		ready = prevDispatch
	}
	if lag = woke.Sub(ready); lag < 0 {
		lag = 0
	}
	return lag, gotConn.Sub(woke)
}

// replyFunc checks one response and reports whether the operation
// succeeded. It runs on the connection's reader goroutine; body is valid
// only for the call. A transport error arrives as err with status 0.
type replyFunc func(i, status int, body []byte, err error) bool

// openLoop sends request i at start+dues[i] regardless of how earlier
// requests fared, over at most len(conns) requests in flight (one per
// connection, no pipelining). build renders request i when it is sent.
// Latency runs from the due instant, so a stall shows in every request that
// queued behind it.
func openLoop(conns []*conn, start time.Time, dues []time.Duration, build func(i int) []byte, reply replyFunc) []sample {
	samples := make([]sample, len(dues))
	free := make(chan *conn, len(conns))
	var wg sync.WaitGroup
	for _, c := range conns {
		c.jobs = make(chan sent, 1)
		free <- c
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for s := range c.jobs {
				status, body, err := c.read()
				done := time.Now()
				ok := reply(s.i, status, body, err)
				if err != nil {
					_ = c.redial() // a failed redial fails the following requests
				}
				sm := &samples[s.i]
				sm.svc = done.Sub(s.at)
				sm.lat = done.Sub(start.Add(dues[s.i]))
				sm.failed = !ok
				free <- c
			}
		}(c)
	}

	// The sender owns an OS thread with a 1ns timer slack so nanosleep wakes
	// on time; the Go timer rounds sub-millisecond sleeps up to a
	// millisecond, which would be all of the latency being measured.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	prev := start
	for i, d := range dues {
		due := start.Add(d)
		sleepUntil(due)
		woke := time.Now()
		c := <-free
		got := time.Now()
		samples[i].lag, samples[i].wait = lagAndWait(due, prev, woke, got)
		req := build(i)
		at := time.Now()
		if err := c.write(req); err != nil {
			reply(i, 0, nil, err)
			_ = c.redial()
			done := time.Now()
			samples[i].svc, samples[i].lat, samples[i].failed = done.Sub(at), done.Sub(due), true
			free <- c
		} else {
			c.jobs <- sent{i: i, at: at}
		}
		prev = time.Now()
	}
	for _, c := range conns {
		close(c.jobs)
	}
	wg.Wait()
	return samples
}

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK

// spinWindow is how long before a due instant the sender stops sleeping and
// spins: nanosleep overshoots by some microseconds on a virtual machine.
const spinWindow = 15 * time.Microsecond

func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d <= spinWindow {
			for time.Now().Before(t) {
			}
			return
		}
		ts := syscall.NsecToTimespec(int64(d - spinWindow))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// poissonDues returns the arrival offsets of a Poisson process at rate per
// second conditioned on n arrivals in the first n/rate seconds: n sorted
// uniform instants, drawn as normalized exponential gaps. Arrivals keep the
// process's bursts, but every phase offers exactly its nominal rate. An
// unconditioned process's n-th arrival wanders by 1/sqrt(n) of the phase,
// and on an overloaded daemon that moved the queue, the profit and the CPU
// time per item from seed to seed.
func poissonDues(rng interface{ ExpFloat64() float64 }, rate float64, n int) []time.Duration {
	gaps := make([]float64, n+1)
	var sum float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	span := float64(n) / rate * float64(time.Second)
	dues := make([]time.Duration, n)
	var t float64
	for i := range dues {
		t += gaps[i]
		dues[i] = time.Duration(t / sum * span)
	}
	return dues
}

// generatorStats returns a phase's generator lateness and connection waits
// in milliseconds, sorted.
func generatorStats(ss []sample) (lag, wait []float64) {
	lag = make([]float64, len(ss))
	wait = make([]float64, len(ss))
	for i, s := range ss {
		lag[i], wait[i] = ms(s.lag), ms(s.wait)
	}
	slices.Sort(lag)
	slices.Sort(wait)
	return lag, wait
}
