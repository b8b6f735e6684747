package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// client is one load-generating connection: its transport keeps exactly one
// keep-alive connection to the server, so the number of clients is the
// number of connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(ctx context.Context, method, path string, body []byte, header map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// drain sends a GET and discards the response body without keeping it.
func (c *client) drain(ctx context.Context, path string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// get is do for a GET that must answer 200.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	status, body, err := c.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, status, body)
	}
	return body, nil
}

// tally counts requests and their outcomes per class, with one latency
// distribution per class. A request that fails or gets an unexpected status
// counts as failed and its latency is not recorded, so it can never meet a
// latency limit.
type tally struct {
	mu        sync.Mutex
	lat       map[string]*dist
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Value // string
	spans     *spanRecorder
	phase     int       // parent span of the requests recorded now
	start     time.Time // when the current phase's measurement began
}

// warmUp is how long a timed phase runs before its requests count: the
// server's caches and heap settle, and the stalls of the first requests
// after set-up stay out of the percentiles.
const warmUp = 2 * time.Second

func newTally(spans *spanRecorder) *tally {
	return &tally{lat: map[string]*dist{}, spans: spans, start: time.Now()}
}

func (t *tally) dist(class string) *dist {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.lat[class]
	if d == nil {
		d = &dist{}
		t.lat[class] = d
	}
	return d
}

// setPhase parents the following requests under span id; requests sent
// within warm from now are not measured.
func (t *tally) setPhase(id int, warm time.Duration) {
	t.mu.Lock()
	t.phase, t.start = id, time.Now().Add(warm)
	t.mu.Unlock()
}

// measured reports whether a request due (or sent) at from counts.
func (t *tally) measured(from time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !from.Before(t.start)
}

// observe records one request of class, timed from due (the open loop's
// schedule) or, when due is zero, from its start.
func (t *tally) observe(class string, due, start, end time.Time, status int, err error, want ...int) bool {
	t.attempted.Add(1)
	t.mu.Lock()
	phase, phaseStart := t.phase, t.start
	t.mu.Unlock()
	t.spans.request(phase, class, due, start, end, status)
	ok := err == nil && contains(want, status)
	if !ok {
		t.failed.Add(1)
		if err == nil {
			err = fmt.Errorf("status %d", status)
		}
		t.firstErr.CompareAndSwap(nil, fmt.Sprintf("%s: %v", class, err))
		return false
	}
	from := start
	if !due.IsZero() {
		from = due
	}
	if !from.Before(phaseStart) {
		t.dist(class).add(ms(end.Sub(from)))
	}
	return true
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// pauseGC stops this process's garbage collector for a timed phase, after
// one collection: a collection cycle of the load generator would compete
// with the servers for the same CPUs and show up as server latency. A memory
// limit of 1 GiB above the live heap still triggers a collection if a phase
// allocates that much. The returned function restores the collector.
func pauseGC() func() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	oldLimit := debug.SetMemoryLimit(int64(ms.HeapAlloc) + 1<<30)
	oldPercent := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(oldPercent)
		debug.SetMemoryLimit(oldLimit)
	}
}

// closedLoop runs n clients, each sending its next request only after the
// previous one completes, until the deadline. step performs one request for
// client i; it returns false to stop that client early.
func closedLoop(ctx context.Context, n int, deadline time.Time, step func(ctx context.Context, i int) bool) {
	defer pauseGC()()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if !step(ctx, i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// openLoop sends the scheduled requests at their due times from n worker
// clients; when every worker is busy a request waits, and its latency still
// counts from when it was due. It returns the generator lateness (send time
// minus due time) of every request due after measureFrom, in milliseconds.
func openLoop(ctx context.Context, n int, start time.Time, measureFrom time.Duration, due []time.Duration, send func(ctx context.Context, worker, i int, due time.Time)) *dist {
	defer pauseGC()()
	late := &dist{}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				at := start.Add(due[i])
				if due[i] >= measureFrom {
					late.add(ms(time.Since(at)))
				}
				send(ctx, w, i, at)
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return late
}
