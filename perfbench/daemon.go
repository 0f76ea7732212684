package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running asppserve child with default settings, listening
// on loopback ports it picked itself.
type daemon struct {
	cmd          *exec.Cmd
	ingest, http string
	setupS       float64 // process start until /healthz answered
	client       *http.Client
	drained      chan struct{} // closed once its stdout is fully read
	stderr       bytes.Buffer  // read only after the process has ended
}

// startDaemon starts asppserve and waits until /healthz answers.
func startDaemon() (*daemon, error) {
	cmd := command(filepath.Join(binDir, "asppserve"), "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0")
	d := &daemon{
		cmd:     cmd,
		client:  &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		drained: make(chan struct{}),
	}
	cmd.Stderr = &d.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.drained)
		var ingest, httpAddr string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "asppserve: ingest on tcp "); ok {
				ingest = a
			} else if a, ok := strings.CutPrefix(line, "asppserve: http on "); ok {
				httpAddr = a
				addrs <- [2]string{ingest, httpAddr}
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addrs:
		d.ingest, d.http = a[0], a[1]
	case <-d.drained:
		d.stop()
		return nil, errors.New("asppserve exited before listening")
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("asppserve did not report its addresses")
	}
	for {
		resp, err := d.client.Get("http://" + d.http + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("asppserve /healthz not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.setupS = time.Since(t0).Seconds()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// metrics scrapes /metrics.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.client.Get("http://" + d.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(b))
}

// stop sends SIGTERM, waits for the daemon to exit (killing it if it
// does not within ten seconds) and returns its resource use.
func (d *daemon) stop() (usage, error) {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-d.drained
		done <- d.cmd.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("asppserve did not stop on SIGTERM")
		}
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ExitCode() == 130 {
		err = nil // the daemon's exit status after an interrupt
	}
	if err != nil {
		err = fmt.Errorf("asppserve: %w: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	return usageOf(d.cmd.ProcessState), err
}

// progress is one /metrics reading of the processed-update counter.
type progress struct {
	At        time.Time
	Processed float64
}

// waitProcessed polls /metrics every millisecond until the daemon reports
// total updates processed, and returns the readings taken.
func (d *daemon) waitProcessed(total int64) ([]progress, error) {
	var seen []progress
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := d.metrics()
		if err != nil {
			return seen, err
		}
		p := progress{time.Now(), m["aspp_serve_processed_total"]}
		seen = append(seen, p)
		if p.Processed >= float64(total) {
			return seen, nil
		}
		if time.Now().After(deadline) {
			return seen, fmt.Errorf("daemon processed %.0f of %d updates", p.Processed, total)
		}
		time.Sleep(time.Millisecond)
	}
}

// poller scrapes /metrics at a fixed interval in the background. Its
// readings belong to its goroutine until stop has waited for it.
type poller struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	took  []float64 // scrape latency, ms
	seen  []progress
}

func (d *daemon) poll(interval time.Duration) *poller {
	p := &poller{stopc: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-t.C:
			}
			t0 := time.Now()
			m, err := d.metrics()
			if err != nil {
				continue // the run's own checks catch a daemon that stopped answering
			}
			now := time.Now()
			p.took = append(p.took, float64(now.Sub(t0))/1e6)
			p.seen = append(p.seen, progress{now, m["aspp_serve_processed_total"]})
		}
	}()
	return p
}

// stop ends the poller and waits for it.
func (p *poller) stop() *poller {
	close(p.stopc)
	p.wg.Wait()
	return p
}

// sendCycles writes buf cycles times over one connection and closes it.
func sendCycles(addr string, buf []byte, cycles int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	for c := 0; c < cycles; c++ {
		if _, err := conn.Write(buf); err != nil {
			conn.Close()
			return err
		}
	}
	return conn.Close()
}

// tick is one scheduled send of the fixed-rate generator.
type tick struct {
	Due, Sent time.Time
	Cum       int64 // updates sent once this tick's frames are written
}

// sendPaced is the open-loop generator: every tickEvery it writes the
// frames due by then, cycling through f, whatever the daemon's progress,
// so a stall delays later ticks instead of thinning the load.
func sendPaced(addr string, f *feed, total int64, rate float64, tickEvery time.Duration) ([]tick, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	n := int64(f.frames)
	perTick := rate * tickEvery.Seconds()
	ticks := make([]tick, 0, int(float64(total)/perTick)+1)
	start := time.Now()
	var sent int64
	for k := 1; sent < total; k++ {
		due := start.Add(time.Duration(k) * tickEvery)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		at := time.Now()
		upto := min(total, int64(float64(k)*perTick))
		for sent < upto {
			i := sent % n
			j := min(n, i+(upto-sent)) // frames [i, j) of this cycle
			if _, err := conn.Write(f.buf[f.offs[i]:f.offs[j]]); err != nil {
				return ticks, err
			}
			sent += j - i
		}
		ticks = append(ticks, tick{Due: due, Sent: at, Cum: sent})
	}
	return ticks, conn.Close()
}

// sinkRate sends the same stream as a saturated phase into a loopback
// listener that discards it, and returns the updates per second the
// generator reached: the ceiling it imposes on the daemon's measured rate.
func sinkRate(buf []byte, cycles int, frames int64) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		b := make([]byte, 256<<10)
		for {
			if _, err := c.Read(b); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				done <- err
				return
			}
		}
	}()
	t0 := time.Now()
	if err := sendCycles(l.Addr().String(), buf, cycles); err != nil {
		return 0, err
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return float64(frames) / time.Since(t0).Seconds(), nil
}
