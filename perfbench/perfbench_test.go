package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) dist {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return newDist(xs)
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{1200, 0.99, 1188, 12, true},
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{21, 0.5, 11, 10, true},
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
	}
	for _, c := range cases {
		d := seq(c.n)
		v, beyond := d.pct(c.q)
		if v != c.want || beyond != c.beyond {
			t.Errorf("n=%d q=%g: pct = %g with %d beyond, want %g with %d", c.n, c.q, v, beyond, c.want, c.beyond)
		}
		if _, ok := d.quantile(c.q); ok != c.ok {
			t.Errorf("n=%d q=%g: qualified = %v, want %v", c.n, c.q, ok, c.ok)
		}
	}
	if v, ok := dist(nil).quantile(0.5); v != 0 || ok {
		t.Errorf("empty sample: %g, %v", v, ok)
	}
}

func TestSegmentMedianDiscardsABurst(t *testing.T) {
	segs := make([][]float64, 5)
	var pooled []float64
	for i := range segs {
		for j := 0; j < minWindow; j++ {
			x := 1 + float64(j*37%100)/1000 // steady: 1.000..1.099
			if i == 1 || i == 3 {
				x = 20 // a burst in two segments
			}
			segs[i] = append(segs[i], x)
		}
		pooled = append(pooled, segs[i]...)
	}
	v, k := segmentMedian(segs)
	if k != 5 || v < 1.04 || v > 1.06 {
		t.Errorf("segmentMedian = %g over %d segments, want the steady median over 5", v, k)
	}
	if p := newDist(pooled).median(); p <= v {
		t.Errorf("pooled median %g should feel the burst more than %g", p, v)
	}
	// One short segment pools them all.
	segs[4] = segs[4][:minWindow-1]
	pooled = pooled[:len(pooled)-1]
	if v, k := segmentMedian(segs); k != 1 || v != newDist(pooled).median() {
		t.Errorf("short segment: %g over %d, want the pooled median %g", v, k, newDist(pooled).median())
	}
	if v, k := segmentMedian([][]float64{{3, 1, 2}}); k != 1 || v != 2 {
		t.Errorf("3 samples: %g over %d segments, want the plain median", v, k)
	}
}

// segmentCounts counts each class's requests in each of the segments a
// run of w is cut into.
func segmentCounts(w *workload) []map[string]int {
	out := make([]map[string]int, w.segments)
	n := len(w.items)
	for i := range out {
		out[i] = map[string]int{}
		for _, it := range w.items[i*n/w.segments : (i+1)*n/w.segments] {
			out[i]["all"]++
			out[i][w.ops[it.op].class]++
		}
	}
	return out
}

// Every workload's schedule must give its reported tails ten samples
// beyond them, at any run length.
func TestWorkloadsSizedForTails(t *testing.T) {
	for _, name := range workloadNames {
		for _, secs := range []int{1, 25} {
			w, err := buildWorkload(name, 3, secs)
			if err != nil {
				t.Fatal(err)
			}
			// Whichever segments are kept, the fewest they can hold.
			n := map[string]int{}
			for _, c := range []string{"all", classCheap, classHeavy} {
				var per []int
				for _, seg := range segmentCounts(w) {
					per = append(per, seg[c])
				}
				sort.Ints(per)
				for _, x := range per[:w.keep] {
					n[c] += x
				}
			}
			if n["all"] < minTailSamples || n[classCheap] < minTailSamples || n[classHeavy] < 2*minBeyond+1 {
				t.Errorf("%s at %ds: %v kept requests per class, too few for p99/p50", name, secs, n)
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, 25)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, 25)
		c, _ := buildWorkload(name, 8, 25)
		if !sameInputs(a, b) {
			t.Errorf("%s: seed 7 built twice differs", name)
		}
		if sameInputs(a, c) {
			t.Errorf("%s: seeds 7 and 8 built the same inputs", name)
		}
	}
}

func sameInputs(a, b *workload) bool {
	if len(a.ops) != len(b.ops) || !reflect.DeepEqual(a.items, b.items) {
		return false
	}
	for i := range a.ops {
		if !bytes.Equal(a.ops[i].body, b.ops[i].body) || a.ops[i].class != b.ops[i].class {
			return false
		}
	}
	return true
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	iv := func(a, b int) interval { return interval{ms(a), ms(b)} }
	parent := iv(0, 100)
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, ms(100)},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, ms(70)},
		{"overlapping hedges", []interval{iv(10, 60), iv(40, 80)}, ms(30)},
		{"nested", []interval{iv(10, 90), iv(20, 30)}, ms(20)},
		{"sticking out", []interval{iv(-20, 10), iv(95, 140)}, ms(85)},
		{"outside", []interval{iv(120, 130)}, ms(100)},
		{"unsorted touching", []interval{iv(50, 70), iv(20, 50)}, ms(50)},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAccountPerClass(t *testing.T) {
	outs := []outcome{
		{class: classCheap, ok: true, latency: 2},
		{class: classCheap, ok: true, latency: 60},
		{class: classCheap, ok: false, latency: 1000},
		{class: classHeavy, ok: true, latency: 300},
	}
	acc := account(outs)
	c, h, all := acc[classCheap], acc[classHeavy], acc["all"]
	if c.attempted != 3 || c.ok != 2 || c.withinSLO != 1 || len(c.lat) != 3 {
		t.Errorf("cheap = %+v", *c)
	}
	if h.attempted != 1 || h.ok != 1 || h.withinSLO != 0 {
		t.Errorf("heavy = %+v", *h)
	}
	if all.attempted != 4 || all.ok != 3 || all.withinSLO != 1 {
		t.Errorf("all = %+v", *all)
	}
	if r := ratio(c.withinSLO, c.attempted); r != 1.0/3 {
		t.Errorf("cheap SLO ratio = %g, want 1/3: a failure is a miss", r)
	}
	// The failed request's latency (the run length) is the cheap tail.
	if v := newDist(c.lat).median(); v != 60 {
		t.Errorf("cheap median = %g, want 60", v)
	}
}

// A 2xx body that differs from its reference is a failed request and a
// wrong answer; its latency cannot pass as a fast one.
func TestMismatchCountsAsFailure(t *testing.T) {
	ref := []byte("{\n  \"estimate\": 1.5,\n  \"time_seconds\": 0\n}\n")
	w := &workload{ops: []op{
		{route: "/v1/estimate", class: classCheap, est: &estimateSpec{}},
		{route: "/v1/estimate", class: classHeavy, est: &estimateSpec{}},
	}}
	refs := [][]byte{ref, ref}
	good := []byte("{\n  \"estimate\": 1.5,\n  \"time_seconds\": 0.0123\n}\n")
	bad := []byte("{\n  \"estimate\": 1.6,\n  \"time_seconds\": 0.0001\n}\n")
	sents := []sent{
		{op: 0, item: 0, status: 200, body: good, done: time.Millisecond},
		{op: 0, item: 1, status: 200, body: bad, done: time.Millisecond},
		{op: 0, item: 2, status: 429, body: []byte(`{"error":"busy"}`), done: time.Millisecond},
		{op: 1, item: 3, status: 200, body: good, done: time.Millisecond},
		{op: 1, item: 4, status: 500, body: good, done: time.Millisecond},
	}
	ev := evaluate(w, refs, sents, 5*time.Second)
	if ev.failed != 3 || ev.wrong != 1 {
		t.Fatalf("failed=%d wrong=%d, want 3 and 1", ev.failed, ev.wrong)
	}
	all := account(ev.outs)["all"]
	if r := ratio(all.ok, all.attempted); r != 2.0/5 {
		t.Errorf("ok_ratio = %g, want 0.4", r)
	}
	if ev.outs[1].ok || ev.outs[1].latency != 5000 {
		t.Errorf("mismatch outcome = %+v, want failed at the run length", ev.outs[1])
	}
}

func TestNormalizeZeroesOnlyTiming(t *testing.T) {
	in := []byte(`{"time_seconds": 0.25, "mc_time_seconds":1e-05, "freeze_time_seconds": 3, "estimate": 0.25}`)
	want := []byte(`{"time_seconds": 0, "mc_time_seconds":0, "freeze_time_seconds": 0, "estimate": 0.25}`)
	if got := normalize(in); !bytes.Equal(got, want) {
		t.Errorf("normalize = %s", got)
	}
}

// BENCHMARK.json's per_layer list is the layer table, name for name.
func TestBenchmarkJSONListsLayers(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(spec.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		p := spec.PerLayer[i]
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table has %s %s %s", i, p, d.name, d.unit, d.better)
		}
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
}

// paper-batch's segments must each hold the same jobs, so a segment's
// median never hangs on which jobs fell into it.
func TestPaperBatchSegmentsHoldWholePasses(t *testing.T) {
	for _, secs := range []int{1, 45} {
		w, err := buildWorkload("paper-batch", 5, secs)
		if err != nil {
			t.Fatal(err)
		}
		n, k := len(w.items), w.segments
		if n%k != 0 {
			t.Fatalf("%ds: %d requests do not cut into %d equal segments", secs, n, k)
		}
		count := func(items []item) map[int]int {
			m := map[int]int{}
			for _, it := range items {
				m[it.op]++
			}
			return m
		}
		first := count(w.items[:n/k])
		for i := 1; i < k; i++ {
			if !reflect.DeepEqual(count(w.items[i*n/k:(i+1)*n/k]), first) {
				t.Errorf("%ds: segment %d holds other jobs than segment 0", secs, i)
			}
		}
	}
}

// The segments kept are those with the least steal per second, found
// by interpolating the sampler's readings; ties keep the earlier one.
func TestLeastStolenKeepsQuietSegments(t *testing.T) {
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	var sents []sent
	for i := 0; i < 40; i++ { // 4 segments of 10 requests, 1 s each
		at := sec(float64(i) / 10)
		sents = append(sents, sent{send: at, done: at + sec(0.05)})
	}
	// Steal: none in segment 0, 300 ms in segment 1, 100 ms in segment
	// 2, none in segment 3; samples every 0.5 s.
	stealAt := []float64{0, 0, 0, 150, 300, 350, 400, 400, 400}
	var ss []sample
	for i, v := range stealAt {
		ss = append(ss, sample{at: sec(float64(i) / 2), stealMS: v, cpuMS: float64(i) * 100})
	}
	segs := cutSegments(sents, ss, 4)
	if len(segs) != 4 || segs[1].lo != 10 || segs[1].hi != 20 {
		t.Fatalf("segments %+v", segs)
	}
	if s := segs[1].stealMS; s < 250 || s > 350 {
		t.Errorf("segment 1 steal %gms, want about 300", s)
	}
	if c := segs[2].cpuMS; c < 180 || c > 200 {
		t.Errorf("segment 2 cpu %gms, want about 190", c)
	}
	var got []int
	for _, g := range leastStolen(segs, 3) {
		got = append(got, g.lo/10)
	}
	if !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Errorf("kept segments %v, want [0 2 3]", got)
	}
	got = got[:0]
	for _, g := range leastStolen(segs, 1) {
		got = append(got, g.lo/10)
	}
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("tie: kept %v, want the earlier segment [0]", got)
	}
}

func TestValidityFlagsMachineDrift(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	var steady, growing []sent
	for i := 0; i < 400; i++ {
		due := ms(float64(i) * 25)
		steady = append(steady, sent{due: due, free: due, send: due + ms(0.02)})
		growing = append(growing, sent{due: due, free: due, send: due + ms(float64(i))})
	}
	if bad := validity(steady, 40, 42); len(bad) != 0 {
		t.Errorf("steady run flagged: %v", bad)
	}
	if bad := validity(steady, 40, 55); len(bad) != 1 {
		t.Errorf("calibration +37%%: flags %v, want one", bad)
	}
	// Sending later and later: the generator is late and the backlog grows.
	if bad := validity(growing, 40, 40); len(bad) != 2 {
		t.Errorf("growing backlog: flags %v, want lateness and growth", bad)
	}
}
