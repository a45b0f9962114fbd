package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sent is one request as the generator saw it. Times are offsets from
// the run start: due is when it should have gone out, free when its
// connection became available, send and done when it went out and
// when its last byte came back.
type sent struct {
	op, item              int
	due, free, send, done time.Duration
	status                int
	body                  []byte
	err                   error
	span                  uint64 // client span id (traced runs only)
}

// spanHeader carries the caller's span id to the next hop in traced
// runs; servers in untraced runs never see it.
const spanHeader = "X-Perfbench-Parent"

// spinAhead is how long before a request's due time the generator stops
// sleeping and yields in a loop instead: a sleeping goroutine wakes up
// to a millisecond late, which would add a uniform delay to every
// open-loop latency.
const spinAhead = 2 * time.Millisecond

// drive sends items over w.conns connections and returns every request
// in item order. In an open loop, connections take items in order and
// send each at its due time or as soon as the connection is free; in a
// closed loop each connection sends its next item when the previous
// completes. With tr set, each request opens a client span.
func drive(ctx context.Context, base string, w *workload, items []item, tr *tracer) []sent {
	tp := &http.Transport{MaxIdleConnsPerHost: w.conns, MaxConnsPerHost: w.conns, DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	start := time.Now()
	out := make([]sent, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				free := time.Since(start)
				due := free
				if !w.closed {
					due = items[i].due
					if d := due - time.Since(start) - spinAhead; d > 0 {
						time.Sleep(d)
					}
					for time.Since(start) < due {
						runtime.Gosched()
					}
				}
				r := send(ctx, client, base, &w.ops[items[i].op], start, tr)
				r.op, r.item, r.due, r.free = items[i].op, i, due, free
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(items))]
}

func send(ctx context.Context, c *http.Client, base string, o *op, start time.Time, tr *tracer) sent {
	var r sent
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.route, bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		r.span = tr.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(r.span, 10))
	}
	t0 := time.Now()
	r.send = t0.Sub(start)
	resp, err := c.Do(req)
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	r.done, r.err = t1.Sub(start), err
	if tr != nil {
		tr.add(span{id: r.span, name: "client", iv: interval{tr.at(t0), tr.at(t1)}})
	}
	return r
}

// sendOnce posts one op outside any schedule (warm-up) and checks it.
func sendOnce(ctx context.Context, c *http.Client, base string, o *op, ref []byte) error {
	r := send(ctx, c, base, o, time.Now(), nil)
	if r.err != nil {
		return r.err
	}
	return checkResponse(ref, r.status, r.body)
}

// calibrate times a fixed single-thread integer loop (median of five)
// so a slow run can be told apart from slow code.
func calibrate() float64 {
	ts := make([]float64, 5)
	for r := range ts {
		t0 := time.Now()
		x := uint64(r + 1)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink.Store(x)
		ts[r] = float64(time.Since(t0).Microseconds()) / 1000
	}
	return newDist(ts).median()
}

var calibSink atomic.Uint64
