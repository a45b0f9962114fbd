package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// layerDef is one per-layer metric: which end-to-end metric it should
// move and on which workload, and where it should stay flat (the
// no-change prediction). BENCHMARK.json lists the same names.
type layerDef struct {
	name, unit, better string
	moves, flat        string
}

var layerDefs = []layerDef{
	{"service.wait_ms.cheap.p50", "ms", "lower", "cheap_p99_ms, cheap_slo_ratio on mixed-serve", "paper-batch (one connection never waits)"},
	{"service.wait_ms.cheap.p90", "ms", "lower", "cheap_p99_ms, cheap_slo_ratio on mixed-serve", "paper-batch"},
	{"service.wait_ms.heavy.p50", "ms", "lower", "heavy_p50_ms on mixed-serve", "paper-batch"},
	{"service.shed_total", "count", "lower", "ok_ratio on every workload", "-"},
	{"montecarlo.trials_per_s", "1/s", "higher", "batch_s on paper-batch; heavy_p50_ms, cheap_p99_ms, cpu_ms_per_op on mixed-serve", "-"},
	{"montecarlo.run_alloc_kb", "KB", "lower", "batch_s on paper-batch; cpu_ms_per_op, peak_rss_mb on mixed-serve", "-"},
	{"montecarlo.adaptive_trials", "count", "lower", "cheap_p50_ms on mixed-serve", "paper-batch (no adaptive jobs)"},
	{"spgraph.dodin_run_ms", "ms", "lower", "batch_s on paper-batch; cheap_p99_ms, p99_ms on mixed-serve (Dodin holds the gate longest)", "-"},
	{"analytic.normal_ms", "ms", "lower", "batch_s on paper-batch", "mixed-serve (no Normal requests)"},
	{"analytic.sculli_ms", "ms", "lower", "batch_s on paper-batch", "mixed-serve"},
	{"analytic.second_order_ms", "ms", "lower", "batch_s on paper-batch", "mixed-serve"},
	{"bounds.bracket_ms", "ms", "lower", "batch_s on paper-batch", "mixed-serve"},
	{"core.first_order_us", "us", "lower", "batch_s on paper-batch; cheap_p50_ms on mixed-serve", "-"},
	{"schedmc.trials_per_s", "1/s", "higher", "batch_s on paper-batch; heavy_p50_ms on mixed-serve", "-"},
	{"experiments.sweep_ms", "ms", "lower", "batch_s on paper-batch", "mixed-serve (no sweeps)"},
	{"artifact.graph.build_ms", "ms", "lower", "setup_s on every workload (set-up builds the working set)", "latencies and batch_s (warm)"},
	{"artifact.mc.build_ms", "ms", "lower", "setup_s on every workload", "latencies and batch_s (warm)"},
	{"artifact.plan.build_ms", "ms", "lower", "setup_s on every workload", "latencies and batch_s (warm)"},
	{"linalg.generate_ms", "ms", "lower", "setup_s on every workload", "latencies and batch_s (warm)"},
	{"artifact.graph.hit_ratio", "ratio", "higher", "setup_s (misses are set-up builds)", "latencies and batch_s (warm)"},
	{"artifact.plan.hit_ratio", "ratio", "higher", "setup_s", "latencies and batch_s (warm)"},
	{"artifact.mc.hit_ratio", "ratio", "higher", "setup_s", "latencies and batch_s (warm)"},
	{"artifact.sched.hit_ratio", "ratio", "higher", "setup_s", "latencies and batch_s (warm)"},
	{"artifact.snap.hit_ratio", "ratio", "higher", "cheap_p50_ms on mixed-serve (adaptive resumes)", "paper-batch (no adaptive jobs)"},
	{"artifact.evictions", "count", "lower", "p99_ms, peak_rss_mb once a working set stops fitting the cache", "mixed-serve, paper-batch (both fit)"},
	{"artifact.resident_mb", "MB", "lower", "peak_rss_mb on every workload", "-"},
	{"lb.route_key_us.generator", "us", "lower", "p50_ms, cheap_p50_ms on mixed-serve", "paper-batch (no lb end to end)"},
	{"lb.route_key_us.inline", "us", "lower", "p50_ms, cheap_p50_ms on mixed-serve (inline-graph bodies)", "paper-batch (no inline graphs, no lb)"},
	{"lb.self_ms", "ms", "lower", "p50_ms, cheap_p50_ms on mixed-serve", "paper-batch (no lb end to end)"},
	{"lb.upstream_ms", "ms", "lower", "p50_ms, cheap_p50_ms on mixed-serve", "paper-batch (no lb end to end)"},
	{"lb.attempts_per_req", "ratio", "lower", "p99_ms on mixed-serve", "paper-batch (no lb end to end)"},
	{"report.encode_us", "us", "lower", "cheap_p50_ms on mixed-serve; batch_s on paper-batch", "-"},
	{"report.bytes", "bytes", "lower", "cheap_p50_ms on mixed-serve; batch_s on paper-batch", "-"},
	{"http.client_overhead_ms", "ms", "lower", "cheap_p50_ms on mixed-serve", "-"},
	{"trace.overhead_p50_ms", "ms", "lower", "none (tracing cost)", "-"},
}

// runTraced measures the per-layer metrics. Untraced and traced runs
// send the same first half of the schedule through the same topology,
// an lb in front of the workload's replicas: the untraced one against
// the daemons (its p50 is the overhead baseline), the traced one
// against the same service and lb code hosted in this process behind
// span handlers. A replay of every distinct body through the layers'
// public functions then times each layer.
func runTraced(ctx context.Context, w *workload, refs [][]byte, o options, workDir string) (res *result, invalid []string, err error) {
	items := w.items[:len(w.items)/2]
	calBefore := calibrate()
	fronted := *w
	fronted.replicas = max(w.replicas, 1)
	mu, err := measure(ctx, &fronted, refs, o.bin, workDir, items, true)
	if err != nil {
		return nil, nil, err
	}
	evU := evaluate(w, refs, mu.sents, mu.wall)

	tr := newTracer()
	f, err := startInproc(w, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := warmUp(ctx, w, refs, f.base); err != nil {
		f.stop()
		return nil, nil, err
	}
	t0 := time.Now()
	sents := drive(ctx, f.base, w, items, tr)
	wall := time.Since(t0)
	cache, err := scrapeCache(f.replicas)
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	shed, err := scrapeShed(f.replicas)
	f.stop()
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("traced run cut at the time budget: %w", err)
	}
	evT := evaluate(w, refs, sents, wall)
	for _, f := range append(evU.firstFailures, evT.firstFailures...) {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}

	rp := newReplayer(ctx, w)
	if err := rp.replayAll(w.ops, refs); err != nil {
		return nil, nil, err
	}
	calAfter := calibrate()
	spans := tr.all()
	if err := writeTrace(workDir, w, spans, rp.calls); err != nil {
		return nil, nil, err
	}

	p50U := newDist(account(evU.outs)["all"].lat).median()
	p50T := newDist(account(evT.outs)["all"].lat).median()
	ms, err := layerMetrics(w, sents, spans, rp.calls, cache, shed)
	if err != nil {
		return nil, nil, err
	}
	ms = append(ms, metric{name: "trace.overhead_p50_ms", value: p50T - p50U, unit: "ms", n: len(sents),
		note: fmt.Sprintf("traced p50 %.4g - untraced p50 %.4g; spans plus in-process hosting", p50T, p50U)})

	fmt.Printf("traced run: %d requests, wall %.1fs; untraced baseline wall %.1fs\n",
		len(sents), wall.Seconds(), mu.wall.Seconds())
	fmt.Printf("layer replay: %d calls over %d bodies, cold and warm; %d replayed documents differ from the reference\n",
		len(rp.calls), len(w.ops), rp.mismatches)
	fmt.Println("per-layer metrics (moves -> end-to-end metric on workload; flat on):")
	defs := map[string]layerDef{}
	for _, d := range layerDefs {
		defs[d.name] = d
	}
	for _, m := range ms {
		d := defs[m.name]
		fmt.Printf("  %s\n      moves: %s; flat: %s\n", m, d.moves, d.flat)
	}
	if len(ms) != len(layerDefs) {
		return nil, nil, fmt.Errorf("emitted %d per-layer metrics, defined %d", len(ms), len(layerDefs))
	}
	invalid = validity(mu.sents, calBefore, calAfter)
	failed := evU.failed + evT.failed
	return &result{
		correct:   evU.wrong+evT.wrong == 0 && rp.mismatches == 0,
		attempted: len(mu.sents) + len(sents),
		failed:    failed,
		metrics:   ms,
	}, invalid, nil
}

// layerMetrics computes every per-layer metric but the trace overhead.
// Layers a workload never reaches report 0 with n=0: that is their
// flat prediction, not a missing value.
func layerMetrics(w *workload, sents []sent, spans []span, calls []layerCall, cache cacheStats, shed float64) ([]metric, error) {
	byID := map[uint64]span{}
	kids := map[uint64][]span{}
	for _, s := range spans {
		byID[s.id] = s
		kids[s.parent] = append(kids[s.parent], s)
	}
	// A request's replayed layer sum: every layer the replica runs (the
	// routing key is the lb's), from the warm pass, since every
	// workload's working set fits the replica cache.
	layerSum := map[int]time.Duration{}
	for _, c := range calls {
		if c.pass == passWarm && !strings.HasPrefix(c.layer, "lb.") {
			layerSum[c.op] += c.dur
		}
	}
	wait := map[string][]float64{}
	var overhead, lbSelf, lbUp []float64
	lbReqs, attempts := 0, 0
	for _, r := range sents {
		c, ok := byID[r.span]
		if !ok || r.err != nil {
			continue
		}
		var front span // the lb's span: the traced fleet always has one
		for _, k := range kids[c.id] {
			front = k
		}
		if front.id == 0 {
			continue
		}
		overhead = append(overhead, ms(c.iv.end-c.iv.start-(front.iv.end-front.iv.start)))
		lbReqs++
		var ups []interval
		var svc span // the replica span under the first attempt that reached one
		for _, u := range kids[front.id] {
			ups = append(ups, u.iv)
			lbUp = append(lbUp, ms(u.iv.end-u.iv.start))
			for _, s := range kids[u.id] {
				if svc.id == 0 {
					svc = s
				}
			}
		}
		attempts += len(ups)
		lbSelf = append(lbSelf, ms(selfTime(front.iv, ups)))
		if svc.id != 0 {
			cls := w.ops[r.op].class
			d := svc.iv.end - svc.iv.start
			wait[cls] = append(wait[cls], ms(d-layerSum[r.op]))
		}
	}

	// sel picks replayed calls of one layer (pass < 0: both passes).
	sel := func(layer string, pass int, keep func(layerCall) bool) []layerCall {
		var out []layerCall
		for _, c := range calls {
			if c.layer == layer && (pass < 0 || c.pass == pass) && (keep == nil || keep(c)) {
				out = append(out, c)
			}
		}
		return out
	}
	medianDur := func(name, layer string, pass int, unit string, keep func(layerCall) bool) metric {
		cs := sel(layer, pass, keep)
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = ms(c.dur)
			if unit == "us" {
				xs[i] *= 1000
			}
		}
		return metric{name: name, value: newDist(xs).median(), unit: unit, n: len(xs)}
	}
	rate := func(name, layer string, keep func(layerCall) bool) metric {
		cs := sel(layer, passWarm, keep)
		trials, secs := 0, 0.0
		for _, c := range cs {
			trials += c.trials
			secs += c.dur.Seconds()
		}
		v := 0.0
		if secs > 0 {
			v = float64(trials) / secs
		}
		return metric{name: name, value: v, unit: "1/s", n: len(cs)}
	}
	built := func(c layerCall) bool { return c.built }
	fixed := func(c layerCall) bool { return !c.adaptive }
	var errs []string
	q := func(name string, xs []float64, p float64) metric {
		v, ok := newDist(xs).quantile(p)
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: %d samples leave fewer than %d beyond p%g", name, len(xs), minBeyond, p*100))
		}
		return metric{name: name, value: v, unit: "ms", n: len(xs)}
	}
	hit := func(kind string) metric {
		k := cache.kinds[kind]
		return metric{name: "artifact." + kind + ".hit_ratio", value: ratio(int(k.Hits), int(k.Hits+k.Misses)),
			unit: "ratio", n: int(k.Hits + k.Misses)}
	}

	var allocs []float64
	for _, c := range sel("montecarlo.run", passWarm, fixed) {
		allocs = append(allocs, c.allocKB)
	}
	adaptive := 0
	for _, c := range sel("montecarlo.run", passCold, func(c layerCall) bool { return c.adaptive }) {
		adaptive += c.trials
	}
	var sizes []float64
	for _, c := range sel("report.encode", passWarm, nil) {
		sizes = append(sizes, float64(c.bytes))
	}
	attemptsPerReq := 0.0
	if lbReqs > 0 {
		attemptsPerReq = float64(attempts) / float64(lbReqs)
	}

	out := []metric{
		{name: "service.wait_ms.cheap.p50", value: newDist(wait[classCheap]).median(), unit: "ms", n: len(wait[classCheap])},
		q("service.wait_ms.cheap.p90", wait[classCheap], 0.9),
		{name: "service.wait_ms.heavy.p50", value: newDist(wait[classHeavy]).median(), unit: "ms", n: len(wait[classHeavy])},
		{name: "service.shed_total", value: shed, unit: "count"},
		rate("montecarlo.trials_per_s", "montecarlo.run", fixed),
		{name: "montecarlo.run_alloc_kb", value: newDist(allocs).median(), unit: "KB", n: len(allocs)},
		{name: "montecarlo.adaptive_trials", value: float64(adaptive), unit: "count"},
		medianDur("spgraph.dodin_run_ms", "spgraph.dodin_run", passWarm, "ms", nil),
		medianDur("analytic.normal_ms", "analytic.normal", passWarm, "ms", nil),
		medianDur("analytic.sculli_ms", "analytic.sculli", passWarm, "ms", nil),
		medianDur("analytic.second_order_ms", "analytic.second_order", passWarm, "ms", nil),
		medianDur("bounds.bracket_ms", "bounds.bracket", passWarm, "ms", nil),
		medianDur("core.first_order_us", "core.first_order", passWarm, "us", nil),
		rate("schedmc.trials_per_s", "schedmc.run", nil),
		medianDur("experiments.sweep_ms", "experiments.sweep", passWarm, "ms", nil),
		medianDur("artifact.graph.build_ms", "artifact.graph", -1, "ms", built),
		medianDur("artifact.mc.build_ms", "artifact.mc", -1, "ms", built),
		medianDur("artifact.plan.build_ms", "artifact.plan", -1, "ms", built),
		medianDur("linalg.generate_ms", "linalg.generate", passCold, "ms", nil),
		hit("graph"), hit("plan"), hit("mc"), hit("sched"), hit("snap"),
		{name: "artifact.evictions", value: float64(cache.evictions()), unit: "count"},
		{name: "artifact.resident_mb", value: float64(cache.usedBytes) / (1 << 20), unit: "MB"},
		medianDur("lb.route_key_us.generator", "lb.route_key."+selGenerator, -1, "us", nil),
		medianDur("lb.route_key_us.inline", "lb.route_key."+selInline, -1, "us", nil),
		{name: "lb.self_ms", value: newDist(lbSelf).median(), unit: "ms", n: len(lbSelf)},
		{name: "lb.upstream_ms", value: newDist(lbUp).median(), unit: "ms", n: len(lbUp)},
		{name: "lb.attempts_per_req", value: attemptsPerReq, unit: "ratio", n: lbReqs},
		medianDur("report.encode_us", "report.encode", passWarm, "us", nil),
		{name: "report.bytes", value: newDist(sizes).median(), unit: "bytes", n: len(sizes)},
		{name: "http.client_overhead_ms", value: newDist(overhead).median(), unit: "ms", n: len(overhead)},
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("sample rule: %s", strings.Join(errs, "; "))
	}
	return out, nil
}

// writeTrace writes the spans of the traced run and the replayed layer
// calls, kept in memory until now, to the work directory.
func writeTrace(dir string, w *workload, spans []span, calls []layerCall) error {
	var b strings.Builder
	b.WriteString("id\tparent\tname\tstart_ms\tend_ms\n")
	for _, s := range spans {
		fmt.Fprintf(&b, "%d\t%d\t%s\t%.3f\t%.3f\n", s.id, s.parent, s.name, ms(s.iv.start), ms(s.iv.end))
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.tsv"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	b.Reset()
	b.WriteString("op\tpass\tlayer\tdur_ms\talloc_kb\ttrials\tbuilt\tbody\n")
	for _, c := range calls {
		fmt.Fprintf(&b, "%d\t%d\t%s\t%.4f\t%.1f\t%d\t%v\t%.100s\n",
			c.op, c.pass, c.layer, ms(c.dur), c.allocKB, c.trials, c.built, w.ops[c.op].body)
	}
	return os.WriteFile(filepath.Join(dir, "layers.tsv"), []byte(b.String()), 0o644)
}
