package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minBeyond = 10

// dist is a sorted sample of one timing.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// pct returns the nearest-rank q-quantile and how many samples lie
// beyond it (rank-wise, so ties above the rank count).
func (d dist) pct(q float64) (v float64, beyond int) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(float64(n)*q-1e-9)) - 1
	i = min(max(i, 0), n-1)
	return d[i], n - 1 - i
}

// quantile is pct gated by the sample rule: ok is false when fewer
// than minBeyond samples lie beyond the q-quantile.
func (d dist) quantile(q float64) (v float64, ok bool) {
	v, beyond := d.pct(q)
	return v, beyond >= minBeyond
}

// median is the lower median (0 for an empty sample).
func (d dist) median() float64 {
	v, _ := d.pct(0.5)
	return v
}

// minWindow is how many samples of a class every kept segment needs
// before a p50 is taken per segment. A class that mixes many job types
// needs this many for a segment's median to fall among many samples
// rather than in the gap between two jobs; with fewer, its kept
// segments are pooled.
const minWindow = 150

// segmentMedian is the median of per-segment medians when every
// segment holds minWindow samples (k is then the segment count), and
// otherwise the median of all of them pooled (k = 1). Across segments,
// a burst of machine noise a few seconds long moves one segment's
// median rather than the result.
func segmentMedian(segs [][]float64) (v float64, k int) {
	var pooled []float64
	meds := make([]float64, 0, len(segs))
	for _, lat := range segs {
		pooled = append(pooled, lat...)
		meds = append(meds, newDist(lat).median())
		if len(lat) < minWindow {
			meds = nil
		}
	}
	if len(meds) == len(segs) && len(segs) > 0 {
		return newDist(meds).median(), len(segs)
	}
	return newDist(pooled).median(), 1
}

// interval is one span's extent on the trace clock.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap one another (hedged attempts) and may
// stick out of the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// outcome is one finished request as the accounting sees it.
type outcome struct {
	class   string
	ok      bool    // 2xx and the body matched its reference
	latency float64 // ms from due time to last byte
}

// classStats accumulates one class's requests, latencies in send-time
// order. A failed request counts
// as attempted, as an SLO miss, and as a latency sample at whatever
// latency its outcome carries (the run's length: never answered).
type classStats struct {
	attempted, ok, withinSLO int
	lat                      []float64
}

// sloMS is the interactive latency objective behind cheap_slo_ratio.
const sloMS = 50.0

// account splits outcomes by class; the "all" entry pools every class.
func account(outs []outcome) map[string]*classStats {
	m := map[string]*classStats{"all": {}, classCheap: {}, classHeavy: {}}
	for _, o := range outs {
		for _, key := range []string{"all", o.class} {
			cs := m[key]
			cs.attempted++
			cs.lat = append(cs.lat, o.latency)
			if !o.ok {
				continue
			}
			cs.ok++
			if o.latency <= sloMS {
				cs.withinSLO++
			}
		}
	}
	return m
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	// n is the sample count behind the value (0 for counts and ratios
	// read from the program). note says where it came from when the
	// name alone does not.
	n    int
	note string
}

func (m metric) String() string {
	s := fmt.Sprintf("%-34s %14.6g %-6s", m.name, m.value, m.unit)
	if m.n > 0 {
		s += fmt.Sprintf(" n=%d", m.n)
	}
	if m.note != "" {
		s += "  " + m.note
	}
	return s
}
