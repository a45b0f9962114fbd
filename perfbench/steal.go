package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A measured run is cut into the workload's segments, of equal request
// count, and the end-to-end metrics (all but set-up, correctness and
// peak RSS) come from the few in which the host took the least CPU from
// this machine. On a shared virtual machine the hypervisor runs
// other guests on our CPUs in bursts of a few seconds; the time it
// takes shows as steal in /proc/stat. A request that needs a stolen
// CPU waits for it, and a few percent of steal doubles a sub-millisecond
// median, so a run's latencies would describe the neighbours, not the
// code. Segments are ranked by steal alone, never by the latencies
// measured in them, so a slower program is as slow in every segment.

// sampleEvery is how often the sampler reads steal and the fleet's CPU
// time during a measured run.
const sampleEvery = 100 * time.Millisecond

// sample is one reading: cumulative host steal over all CPUs and the
// fleet's cumulative CPU time, at an offset from the run start.
type sample struct {
	at      time.Duration
	stealMS float64
	cpuMS   float64
}

// sampler reads steal and fleet CPU every sampleEvery until stopped.
type sampler struct {
	mu      sync.Mutex
	samples []sample
	stop    chan struct{}
	done    chan struct{}
}

// startSampler takes a first reading at once and then one every
// sampleEvery; offsets are measured from start. cpu reads the fleet's
// CPU time; a failed read repeats the last value.
func startSampler(start time.Time, cpu func() (float64, error)) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	read := func() {
		x := sample{at: time.Since(start), stealMS: readStealMS()}
		s.mu.Lock()
		defer s.mu.Unlock()
		if n := len(s.samples); n > 0 {
			x.cpuMS = s.samples[n-1].cpuMS
		}
		if v, err := cpu(); err == nil {
			x.cpuMS = v
		}
		s.samples = append(s.samples, x)
	}
	read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return s
}

// finish takes a last reading, stops the sampler and returns every
// reading in time order.
func (s *sampler) finish() []sample {
	close(s.stop)
	<-s.done
	return s.samples
}

// readStealMS returns the host's cumulative steal over all CPUs in
// milliseconds (the "cpu" line of /proc/stat, field 8, in USER_HZ
// ticks). Where there is no such counter it returns 0, and every
// segment then ties.
func readStealMS() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fs := strings.Fields(line)
	if len(fs) < 9 || fs[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(fs[8], 64)
	if err != nil {
		return 0
	}
	const clkTck = 100 // USER_HZ on every Linux ABI Go supports
	return v * 1000 / clkTck
}

// between interpolates a cumulative reading linearly between the
// samples around a and b and returns its growth from a to b.
func between(ss []sample, a, b time.Duration, f func(sample) float64) float64 {
	return interp(ss, b, f) - interp(ss, a, f)
}

func interp(ss []sample, t time.Duration, f func(sample) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	i := sort.Search(len(ss), func(i int) bool { return ss[i].at >= t })
	switch {
	case i == 0:
		return f(ss[0])
	case i == len(ss):
		return f(ss[len(ss)-1])
	}
	lo, hi := ss[i-1], ss[i]
	if hi.at == lo.at {
		return f(hi)
	}
	frac := float64(t-lo.at) / float64(hi.at-lo.at)
	return f(lo) + frac*(f(hi)-f(lo))
}

// segment is one contiguous slice of a run's requests, sents[lo:hi],
// and the time it spanned: from its first send to its last answer.
type segment struct {
	lo, hi     int
	start, end time.Duration
	stealMS    float64 // host steal during [start, end), all CPUs
	cpuMS      float64 // fleet CPU time during [start, end)
}

// cutSegments cuts sents (in item order) into n segments of equal
// count and reads each one's steal and fleet CPU from ss.
func cutSegments(sents []sent, ss []sample, n int) []segment {
	segs := make([]segment, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(sents)/n, (i+1)*len(sents)/n
		if lo == hi {
			continue
		}
		g := segment{lo: lo, hi: hi, start: sents[lo].send, end: sents[lo].done}
		for _, r := range sents[lo:hi] {
			g.start = min(g.start, r.send)
			g.end = max(g.end, r.done)
		}
		g.stealMS = between(ss, g.start, g.end, func(s sample) float64 { return s.stealMS })
		g.cpuMS = between(ss, g.start, g.end, func(s sample) float64 { return s.cpuMS })
		segs = append(segs, g)
	}
	return segs
}

// leastStolen returns the keep segments with the least steal per
// second, in run order; ties go to the earlier segment.
func leastStolen(segs []segment, keep int) []segment {
	rate := func(g segment) float64 {
		if d := (g.end - g.start).Seconds(); d > 0 {
			return g.stealMS / d
		}
		return 0
	}
	idx := make([]int, len(segs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rate(segs[idx[a]]) < rate(segs[idx[b]]) })
	idx = idx[:min(keep, len(idx))]
	sort.Ints(idx)
	out := make([]segment, len(idx))
	for i, j := range idx {
		out[i] = segs[j]
	}
	return out
}
