// Command perfbench is the repository's benchmark. It runs one workload
// against the real makespand and makespan-lb binaries, checks every
// response byte for byte against the CLIs' answers, and prints each
// metric with its unit and sample count; the last line of its output is
// one JSON object with the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a separate traced run).
//
//	perfbench -bin DIR -work DIR -workload mixed-serve -seed 1 -seconds 30 -trace 0
//
// -bin holds makespand, makespan-lb, makespan, schedsim and
// experiments; perfbench/run.sh builds them and this command from the
// checkout and passes both directories.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one invocation, references and set-up included.
const runBudget = 170 * time.Second

// An end-to-end run sets the fleet up at least minSetups times and
// until minSetupTime has gone into set-ups (at most maxSetups), reports
// the median and measures on the last one. Cheap set-ups repeat more,
// so their median rests on enough samples to be steady.
const (
	minSetups    = 3
	maxSetups    = 41
	minSetupTime = time.Second
)

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	bin, work string
}

// result is what the final JSON line reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed sends the same bodies on the same schedule")
	flag.IntVar(&o.seconds, "seconds", 30, "approximate measured seconds; request counts never drop below the percentile rule's minimum")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a separate traced run instead of the end-to-end metrics")
	flag.StringVar(&o.bin, "bin", "", "directory with makespand, makespan-lb, makespan, schedsim and experiments")
	flag.StringVar(&o.work, "work", "", "scratch directory for logs, reference inputs and the per-request and span records")
	flag.Parse()
	o.trace = trace == 1
	if o.bin == "" || o.work == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	// SIGINT or SIGTERM ends the run the way the time budget does: the
	// fleet is stopped and waited for before the benchmark exits.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(sigCtx, runBudget)
	res, err := run(ctx, o)
	cancel()
	stopSignals()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed}
	ms := map[string]any{}
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(ctx context.Context, o options) (*result, error) {
	w, err := buildWorkload(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	workDir := filepath.Join(o.work, w.name)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	loop := fmt.Sprintf("open loop, %.0f/s mean arrivals", w.rate)
	if w.closed {
		loop = "closed loop"
	}
	fmt.Printf("workload %s seed %d: %d distinct bodies, %d requests, %s, %d connection(s)\n",
		w.name, o.seed, len(w.ops), len(w.items), loop, w.conns)
	t0 := time.Now()
	refs, err := references(o.bin, workDir, w.ops)
	if err != nil {
		return nil, err
	}
	fmt.Printf("references: %d bodies from the CLIs in %.1fs\n", len(refs), time.Since(t0).Seconds())
	runOnce := runEndToEnd
	if o.trace {
		runOnce = runTraced
	}
	// An invalid run is measured once more; a second invalid run ends
	// the benchmark without a result rather than report the machine.
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		res, invalid, err := runOnce(ctx, w, refs, o, workDir)
		if err != nil || len(invalid) == 0 {
			return res, err
		}
		why := strings.Join(invalid, "; ")
		dl, _ := ctx.Deadline()
		if attempt == 2 || time.Until(dl) < 2*time.Since(t0) {
			return nil, fmt.Errorf("run invalid (%s); its numbers describe the machine, not the code", why)
		}
		fmt.Fprintf(os.Stderr, "perfbench: run invalid (%s); measuring again\n", why)
	}
}

// measurement is one measured run against real server processes.
type measurement struct {
	setupS  []float64
	sents   []sent
	samples []sample // steal and fleet CPU during the measured requests
	wall    time.Duration
	cpuMS   float64
	hwmMB   float64
	cache   cacheStats
}

// measure sets the fleet up (launch to ready, plus the workload's
// warm-up) until the set-up rule above or, with once, a single time is
// met, tearing down all but the last set-up; then, unless once, it
// sends the workload's pre-roll, and finally it sends items and reads
// the fleet's CPU, peak RSS and cache counters.
func measure(ctx context.Context, w *workload, refs [][]byte, binDir, workDir string, items []item, once bool) (*measurement, error) {
	m := &measurement{}
	var f *fleet
	spent := time.Duration(0)
	for s := 0; ; s++ {
		t0 := time.Now()
		var err error
		if f, err = launch(w, binDir, workDir); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, w, refs, f.base); err != nil {
			f.stop()
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		spent += time.Since(t0)
		if once || s+1 >= maxSetups || (s+1 >= minSetups && spent >= minSetupTime) {
			break
		}
		f.stop()
	}
	defer f.stop()
	if !once && w.preroll > 0 {
		n := sort.Search(len(items), func(i int) bool { return items[i].due >= w.preroll })
		drive(ctx, f.base, w, items[:n], nil)
	}
	cpu0, err := f.cpuMS()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	smp := startSampler(t0, f.cpuMS)
	m.sents = drive(ctx, f.base, w, items, nil)
	m.wall = time.Since(t0)
	m.samples = smp.finish()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run cut short by the time budget or a signal: %w", err)
	}
	cpu1, err := f.cpuMS()
	if err != nil {
		return nil, err
	}
	m.cpuMS = cpu1 - cpu0
	if m.hwmMB, err = f.hwmMB(); err != nil {
		return nil, err
	}
	m.cache, err = scrapeCache(f.replicas)
	return m, err
}

// warmUp sends the workload's warm-up ops once each and checks them.
func warmUp(ctx context.Context, w *workload, refs [][]byte, base string) error {
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	c := &http.Client{Transport: tp}
	for _, id := range w.warm {
		if err := sendOnce(ctx, c, base, &w.ops[id], refs[id]); err != nil {
			return fmt.Errorf("warm-up %s: %w", w.ops[id].body, err)
		}
	}
	return nil
}

// evaluation is a run's requests checked against their references.
type evaluation struct {
	outs          []outcome
	failed, wrong int
	firstFailures []string
}

// evaluate checks every response. A failure (transport error, non-2xx
// or wrong body) counts as answered at the end of the run, so it can
// only raise a percentile.
func evaluate(w *workload, refs [][]byte, sents []sent, wall time.Duration) evaluation {
	var ev evaluation
	for _, r := range sents {
		o := &w.ops[r.op]
		err := r.err
		if err == nil {
			if err = checkResponse(refs[r.op], r.status, r.body); err != nil && r.status/100 == 2 {
				ev.wrong++
			}
		}
		lat := ms(r.done - r.due)
		if err != nil {
			ev.failed++
			lat = ms(wall)
			if len(ev.firstFailures) < 3 {
				ev.firstFailures = append(ev.firstFailures, fmt.Sprintf("%s %.120s: %v", o.route, o.body, err))
			}
		}
		ev.outs = append(ev.outs, outcome{class: o.class, ok: err == nil, latency: lat})
	}
	return ev
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runEndToEnd measures the end-to-end metrics on the whole schedule.
// invalid lists what made the run invalid, if anything did.
func runEndToEnd(ctx context.Context, w *workload, refs [][]byte, o options, workDir string) (res *result, invalid []string, err error) {
	calBefore := calibrate()
	m, err := measure(ctx, w, refs, o.bin, workDir, w.items, false)
	if err != nil {
		return nil, nil, err
	}
	calAfter := calibrate()
	if err := writeRequests(filepath.Join(workDir, "requests.tsv"), w, m.sents); err != nil {
		return nil, nil, err
	}
	ev := evaluate(w, refs, m.sents, m.wall)
	for _, f := range ev.firstFailures {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}
	// Latency, throughput and CPU metrics come from the least-stolen
	// segments; correctness counts every request.
	segs := cutSegments(m.sents, m.samples, w.segments)
	kept := leastStolen(segs, w.keep)
	printSegments(segs, kept)
	var keptOuts []outcome
	var perSeg []map[string]*classStats
	keptWall, keptCPU := 0.0, 0.0
	for _, g := range kept {
		keptOuts = append(keptOuts, ev.outs[g.lo:g.hi]...)
		perSeg = append(perSeg, account(ev.outs[g.lo:g.hi]))
		keptWall += (g.end - g.start).Seconds()
		keptCPU += g.cpuMS
	}
	acc := account(keptOuts)
	total := account(ev.outs)["all"]
	all, cheap := acc["all"], acc[classCheap]
	dAll, dCheap := newDist(all.lat), newDist(cheap.lat)
	var errs []string
	tail := func(d dist, q float64, what string) float64 {
		v, ok := d.quantile(q)
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: %d samples leave fewer than %d beyond p%g", what, len(d), minBeyond, q*100))
		}
		return v
	}
	// Medians are taken per kept segment and then across them, where
	// every segment holds enough of the class; tails pool the kept
	// segments.
	median := func(name, class string) metric {
		var lats [][]float64
		for _, a := range perSeg {
			lats = append(lats, a[class].lat)
		}
		v, k := segmentMedian(lats)
		note := fmt.Sprintf("median of %d segment medians", k)
		if k == 1 {
			note = "pooled median of the kept segments"
		}
		return metric{name: name, value: v, unit: "ms", n: len(acc[class].lat), note: note}
	}
	out := []metric{
		{name: "setup_s", value: newDist(m.setupS).median(), unit: "s", n: len(m.setupS)},
		median("p50_ms", "all"),
		{name: "p99_ms", value: tail(dAll, 0.99, "p99_ms"), unit: "ms", n: len(dAll)},
		median("cheap_p50_ms", classCheap),
		{name: "cheap_p99_ms", value: tail(dCheap, 0.99, "cheap_p99_ms"), unit: "ms", n: len(dCheap)},
		{name: "cheap_slo_ratio", value: ratio(cheap.withinSLO, cheap.attempted), unit: "ratio", n: cheap.attempted,
			note: fmt.Sprintf("within %gms", sloMS)},
		median("heavy_p50_ms", classHeavy),
		{name: "batch_s", value: keptWall, unit: "s", n: len(kept),
			note: fmt.Sprintf("wall time of the kept segments; whole run %.3fs", m.wall.Seconds())},
		{name: "ok_ratio", value: ratio(total.ok, total.attempted), unit: "ratio", n: total.attempted, note: "every request"},
		{name: "cpu_ms_per_op", value: keptCPU / float64(max(all.ok, 1)), unit: "ms", n: all.ok,
			note: fmt.Sprintf("whole run %.4gms", m.cpuMS/float64(max(total.ok, 1)))},
		{name: "peak_rss_mb", value: m.hwmMB, unit: "MB"},
	}
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("sample rule: %s", strings.Join(errs, "; "))
	}
	fmt.Println("end-to-end metrics:")
	for _, x := range out {
		fmt.Println("  " + x.String())
	}
	invalid = validity(m.sents, calBefore, calAfter)
	printCache(m.cache)
	return &result{correct: ev.wrong == 0, attempted: total.attempted, failed: ev.failed, metrics: out}, invalid, nil
}

// printSegments shows each segment's steal rate and which were kept.
func printSegments(segs, kept []segment) {
	isKept := map[int]bool{}
	for _, g := range kept {
		isKept[g.lo] = true
	}
	fmt.Printf("segments (host steal over all CPUs, ms/s; * kept):")
	for _, g := range segs {
		mark := ""
		if isKept[g.lo] {
			mark = "*"
		}
		rate := 0.0
		if d := (g.end - g.start).Seconds(); d > 0 {
			rate = g.stealMS / d
		}
		fmt.Printf(" %.1f%s", rate, mark)
	}
	fmt.Println()
}

// validity prints what separates a slow machine from slow code: the
// calibration loop before and after, how late the generator sent
// requests while a connection was free, and whether the send backlog
// grew from the first quarter of the run to the last. It returns the
// reasons the run is invalid, if any.
func validity(sents []sent, calBefore, calAfter float64) []string {
	var late, delays []float64
	for _, r := range sents {
		late = append(late, ms(r.send-max(r.due, r.free)))
		delays = append(delays, ms(r.send-r.due))
	}
	dl := newDist(late)
	lv, lq := dl.median(), 50.0
	for _, q := range []float64{0.99, 0.9} {
		if v, ok := dl.quantile(q); ok {
			lv, lq = v, q*100
			break
		}
	}
	n := len(delays)
	growth := newDist(delays[3*n/4:]).median() - newDist(delays[:n/4]).median()
	drift := calAfter/calBefore - 1
	fmt.Println("run validity:")
	for _, x := range []metric{
		{name: "calib_before_ms", value: calBefore, unit: "ms", note: "fixed single-thread loop, median of 5"},
		{name: "calib_after_ms", value: calAfter, unit: "ms"},
		{name: "gen_late_ms", value: lv, unit: "ms", n: len(late), note: fmt.Sprintf("p%g of send time past max(due, connection free)", lq)},
		{name: "backlog_growth_ms", value: growth, unit: "ms", n: n, note: "median send delay, last quarter minus first"},
	} {
		fmt.Println("  " + x.String())
	}
	// The limits sit well outside what healthy runs on a 2-core box show
	// (calibration within ±10%, lateness under 6 ms, growth under 1 ms).
	var bad []string
	if math.Abs(drift) > 0.25 {
		bad = append(bad, fmt.Sprintf("calibration moved %+.0f%% during the run", drift*100))
	}
	if lv > 20 {
		bad = append(bad, fmt.Sprintf("generator ran %.1fms late", lv))
	}
	if growth > 250 {
		bad = append(bad, fmt.Sprintf("backlog grew %.0fms", growth))
	}
	if len(bad) == 0 {
		fmt.Println("  run valid")
	} else {
		fmt.Printf("  RUN INVALID: %s\n", strings.Join(bad, "; "))
	}
	return bad
}

// cacheStats sums GET /v1/cache over a fleet's replicas.
type cacheStats struct {
	usedBytes int64
	kinds     map[string]kindStats
}

type kindStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	ResidentBytes int64 `json:"resident_bytes"`
}

func scrapeCache(replicas []string) (cacheStats, error) {
	cs := cacheStats{kinds: map[string]kindStats{}}
	for _, base := range replicas {
		resp, err := http.Get(base + "/v1/cache")
		if err != nil {
			return cs, err
		}
		var body struct {
			UsedBytes int64                `json:"used_bytes"`
			Kinds     map[string]kindStats `json:"kinds"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return cs, fmt.Errorf("decode %s/v1/cache: %w", base, err)
		}
		cs.usedBytes += body.UsedBytes
		for k, v := range body.Kinds {
			t := cs.kinds[k]
			t.Hits += v.Hits
			t.Misses += v.Misses
			t.Evictions += v.Evictions
			t.ResidentBytes += v.ResidentBytes
			cs.kinds[k] = t
		}
	}
	return cs, nil
}

// scrapeShed sums makespand_requests_shed_total over the replicas.
func scrapeShed(replicas []string) (float64, error) {
	total := 0.0
	for _, base := range replicas {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return 0, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "makespand_requests_shed_total "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return 0, err
				}
				total += v
			}
		}
	}
	return total, nil
}

func (cs cacheStats) evictions() int64 {
	var n int64
	for _, k := range cs.kinds {
		n += k.Evictions
	}
	return n
}

func printCache(cs cacheStats) {
	fmt.Printf("artifact cache at run end: %.1f MB resident, %d evictions\n", float64(cs.usedBytes)/(1<<20), cs.evictions())
	for _, kind := range []string{"graph", "plan", "mc", "sched", "snap"} {
		k := cs.kinds[kind]
		fmt.Printf("  %-6s hits %6d misses %6d hit_ratio %.4f evictions %d\n",
			kind, k.Hits, k.Misses, ratio(int(k.Hits), int(k.Hits+k.Misses)), k.Evictions)
	}
}

// writeRequests records the measured requests, one row each, so a
// run's tail can be traced to the requests that make it.
func writeRequests(path string, w *workload, sents []sent) error {
	var b strings.Builder
	b.WriteString("op\tclass\troute\tdue_ms\tsend_ms\tdone_ms\tstatus\tbody\n")
	for _, r := range sents {
		o := &w.ops[r.op]
		fmt.Fprintf(&b, "%d\t%s\t%s\t%.3f\t%.3f\t%.3f\t%d\t%.100s\n",
			r.op, o.class, o.route, ms(r.due), ms(r.send), ms(r.done), r.status, o.body)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
