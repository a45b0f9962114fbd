package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dag"
)

// Request classes. Every workload splits its requests into an
// interactive class and a heavy class; the split is fixed per op, so
// per-class counts are exact for a given seed.
const (
	classCheap = "cheap"
	classHeavy = "heavy"
)

// Graph selector types, as the lb's routing-key path sees them.
const (
	selGenerator = "generator"
	selInline    = "inline"
)

// estimateSpec is a POST /v1/estimate body. Every field the CLI and the
// service default differently is always set explicitly.
type estimateSpec struct {
	Kind      string          `json:"kind,omitempty"`
	K         int             `json:"k,omitempty"`
	Graph     json.RawMessage `json:"graph,omitempty"`
	PFail     float64         `json:"pfail"`
	Methods   string          `json:"methods"`
	Trials    int             `json:"trials,omitempty"`
	Seed      uint64          `json:"seed"`
	Bounds    bool            `json:"bounds,omitempty"`
	Quantiles []float64       `json:"quantiles,omitempty"`
	Tolerance float64         `json:"tolerance,omitempty"`
}

// scheduleSpec is a POST /v1/schedule body (both policies).
type scheduleSpec struct {
	Kind      string    `json:"kind"`
	K         int       `json:"k"`
	Procs     int       `json:"procs"`
	PFail     float64   `json:"pfail"`
	Trials    int       `json:"trials"`
	Seed      uint64    `json:"seed"`
	Quantiles []float64 `json:"quantiles,omitempty"`
}

// sweepSpec is a POST /v1/sweep body (the paper's methods, default
// pfail decades).
type sweepSpec struct {
	Kind   string `json:"kind"`
	K      int    `json:"k"`
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
}

// op is one distinct request of a workload: its route, class and body,
// plus the parsed spec the reference and the layer replay are derived
// from. Exactly one of est, sched and sweep is set.
type op struct {
	route string
	class string
	sel   string
	body  []byte
	est   *estimateSpec
	sched *scheduleSpec
	sweep *sweepSpec
	graph []byte // an inline op's graph JSON
}

// item is one scheduled request: op sent at due, from run start (in a
// closed loop, as soon as the previous request completes).
type item struct {
	due time.Duration
	op  int
}

// workload is one generated traffic mix and the fleet it runs against.
type workload struct {
	name  string
	ops   []op
	items []item
	// warm ops are sent once, in order, after the fleet is ready; they
	// are part of set-up, not of the measurement.
	warm []int
	// preroll: the schedule's first preroll of due times is sent once,
	// unmeasured, between set-up and the measured run, so the measured
	// run starts on daemons already in their steady state under load
	// (heaps grown, connections and goroutines up).
	preroll time.Duration
	// segments: a measured run is cut into this many segments of equal
	// request count, and the keep least-stolen ones are measured (see
	// leastStolen). Shorter segments dodge shorter bursts of steal;
	// the kept ones must still hold a p99's thousand samples.
	segments, keep int
	// closed: one request in flight per connection, each sent when the
	// previous completes. Otherwise items go out on their due times.
	closed bool
	conns  int
	rate   float64 // open loop: mean arrivals per second
	// Fleet shape: replicas > 0 puts makespan-lb in front of that many
	// makespand processes; 0 means one makespand serves directly.
	replicas   int
	workers    int
	cacheBytes int64
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"mixed-serve", "paper-batch"}

// buildWorkload generates a workload's ops and schedule from seed. The
// same (name, seed, seconds) always gives the same bodies and due
// times. seconds stretches the request count, never below the count at
// which every reported percentile has ten samples beyond it.
func buildWorkload(name string, seed uint64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(int64(seed ^ 0x5eed5eed)))
	var w *workload
	switch name {
	case "mixed-serve":
		w = mixedServe(rng, seconds)
	case "paper-batch":
		w = paperBatch(rng, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	for i := range w.ops {
		b, err := json.Marshal(w.ops[i].spec())
		if err != nil {
			return nil, fmt.Errorf("encode %s body: %w", w.name, err)
		}
		w.ops[i].body = b
	}
	return w, nil
}

func (o *op) spec() any {
	switch {
	case o.est != nil:
		return o.est
	case o.sched != nil:
		return o.sched
	default:
		return o.sweep
	}
}

// minTailSamples is the per-class sample count at which a p99 has ten
// samples beyond it.
const minTailSamples = 100 * minBeyond

func mcSeed(rng *rand.Rand) uint64 { return uint64(rng.Int63n(1 << 30)) }

func (w *workload) add(o op) int {
	w.ops = append(w.ops, o)
	return len(w.ops) - 1
}

// rounds returns n op ids drawn in rounds: each consecutive block of
// len(ids) holds every id once, in a fresh seeded order. Counts are
// then exact and every body recurs within two rounds, so how often a
// body repeats, and with it the cache's hit ratio, is a property of the
// workload rather than a draw of the seed.
func rounds(rng *rand.Rand, ids []int, n int) []int {
	out := make([]int, 0, n+len(ids))
	for len(out) < n {
		for _, p := range rng.Perm(len(ids)) {
			out = append(out, ids[p])
		}
	}
	return out[:n]
}

// poissonDues assigns exponential inter-arrival gaps at rate per second.
func poissonDues(rng *rand.Rand, items []item, rate float64) {
	t := 0.0
	for i := range items {
		t += rng.ExpFloat64() / rate
		items[i].due = time.Duration(t * float64(time.Second))
	}
}

// mixedServe: makespan-lb in front of one makespand -workers 2, under
// an open loop of ~95% interactive estimates and ~5% heavy requests
// that hold the compute gate for tens of milliseconds up to ~100 ms. The
// working set fits the cache and is warmed during set-up. The rate is
// 80/s because at 40/s only a few dozen interactive requests a run
// queued behind Dodin runs, so cheap_p99_ms hung on how many of the
// seed's Poisson arrivals happened to land there.
func mixedServe(rng *rand.Rand, seconds int) *workload {
	w := &workload{name: "mixed-serve", conns: 2, rate: 80, replicas: 1, workers: 2, cacheBytes: 256 << 20,
		preroll: 5 * time.Second, segments: 18, keep: 9}
	var cheap, dodin, sched, mc []int
	for v := 0; v < 8; v++ {
		s := mcSeed(rng)
		cheap = append(cheap,
			w.add(estOp(classCheap, &estimateSpec{Kind: "lu", K: 8, PFail: 0.001, Methods: "First Order", Trials: 256, Seed: s})),
			w.add(estOp(classCheap, &estimateSpec{Kind: "qr", K: 10, PFail: 0.001, Methods: "First Order", Trials: 256, Seed: s, Quantiles: []float64{0.5, 0.95}})),
			w.add(estOp(classCheap, &estimateSpec{Kind: "cholesky", K: 12, PFail: 0.001, Methods: "First Order", Tolerance: 0.01, Seed: s})))
	}
	// Inline graphs: the lb canonicalizes each one to route it, and the
	// replica decodes and hashes it again before its cache hit.
	for v := 0; v < 4; v++ {
		raw := layeredGraph(150, rng.Int63())
		cheap = append(cheap, w.add(op{route: "/v1/estimate", class: classCheap, sel: selInline, graph: raw,
			est: &estimateSpec{Graph: raw, PFail: 0.001, Methods: "First Order", Trials: 256, Seed: mcSeed(rng)}}))
	}
	for v, pf := range []float64{0.001, 0.002} {
		s := mcSeed(rng)
		dodin = append(dodin, w.add(estOp(classHeavy, &estimateSpec{Kind: "lu", K: 16, PFail: pf, Methods: "Dodin", Seed: s})))
		sched = append(sched, w.add(op{route: "/v1/schedule", class: classHeavy, sel: selGenerator,
			sched: &scheduleSpec{Kind: "lu", K: 16, Procs: 8, PFail: 0.001, Trials: 2000, Seed: s}}))
		mc = append(mc, w.add(estOp(classHeavy, &estimateSpec{Kind: "lu", K: 20, PFail: 0.001, Methods: "First Order", Trials: 10000, Seed: s + uint64(v)})))
	}
	// Interactive requests arrive as a Poisson stream; heavy ones are
	// spread evenly over the same span with ±10% jitter, so no two
	// heavies overlap and every heavy disturbs the interactive stream
	// the same way. Poisson-clustered heavies would make the tail a
	// draw of the seed rather than a property of the server.
	cheapRate := 0.95 * w.rate
	// The kept segments must still give the cheap p99 its samples.
	nCheap := max(minTailSamples*w.segments/w.keep*11/10, int(math.Round(cheapRate*float64(seconds))))
	cycle := [][]int{mc, dodin, mc, sched}
	// About 5% heavy, rounded up to whole cycles.
	whole := len(cycle)
	nHeavy := ((nCheap*5+94)/95 + whole - 1) / whole * whole
	for _, id := range rounds(rng, cheap, nCheap) {
		w.items = append(w.items, item{op: id})
	}
	poissonDues(rng, w.items, cheapRate)
	// Heavy requests cycle through a fixed mix (the seed picks each
	// one's variant), so every stretch of the run carries the same heavy
	// load. Half the cycle is Monte Carlo, flanked in latency by as many
	// faster schedules as slower Dodin runs, so the heavy median falls in
	// the middle of the Monte Carlo runs, not on a flank where a slower
	// machine moves it most. The Dodin runs hold the gate longest and set
	// the interactive tail, so they are many and moderate (LU k=16,
	// ~100 ms): a few long ones (LU k=20, ~300 ms) made the tail hang on
	// whichever of them the machine slowed. The mix keeps the gate busy
	// with heavies about a fifth of the time: enough to queue interactive
	// requests, little enough that the interactive median stays clear of
	// the queueing.
	gap := float64(nCheap) / cheapRate / float64(nHeavy)
	for i := 0; i < nHeavy; i++ {
		kind := cycle[i%len(cycle)]
		at := (float64(i) + 0.5 + 0.2*(rng.Float64()-0.5)) * gap
		w.items = append(w.items, item{due: time.Duration(at * float64(time.Second)), op: kind[rng.Intn(len(kind))]})
	}
	sort.SliceStable(w.items, func(i, j int) bool { return w.items[i].due < w.items[j].due })
	for i := range w.ops {
		w.warm = append(w.warm, i)
	}
	return w
}

// layeredGraph generates a random layered DAG of n tasks from seed and
// returns its JSON.
func layeredGraph(n int, seed int64) []byte {
	g, err := dag.LayeredRandom(dag.RandomConfig{Tasks: n, MinWeight: 1, MaxWeight: 10, EdgeProb: 0.3, MaxLayerWidth: 8},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err) // the config above is valid
	}
	var buf bytes.Buffer
	if err := dag.WriteJSON(&buf, g); err != nil {
		panic(err) // writing to memory does not fail
	}
	return buf.Bytes()
}

// paperBatch: one makespand -workers 2 and one closed-loop client
// running the paper's study as single-estimator jobs over
// lu/qr/cholesky × k ∈ {6,10,14,18} × pfail ∈ {0.01, 0.001}, plus one
// schedule and one sweep per kind. Set-up runs the list once, building
// every graph, Dodin plan and estimator; the measured passes are then
// kernel-bound. (Measuring the cold pass instead left set-up a few
// milliseconds of process start, and the daemon's peak RSS a draw of
// which plan builds met between two collections.)
func paperBatch(rng *rand.Rand, seconds int) *workload {
	w := &workload{name: "paper-batch", conns: 1, closed: true, workers: 2, cacheBytes: 256 << 20,
		segments: 9, keep: 5}
	var list []int
	for _, kind := range []string{"lu", "qr", "cholesky"} {
		for _, k := range []int{6, 10, 14, 18} {
			for _, pf := range []float64{0.01, 0.001} {
				small := k <= 10
				cls := func(analytic bool) string {
					if analytic || small {
						return classCheap
					}
					return classHeavy
				}
				for _, m := range []string{"First Order", "Dodin", "Normal", "Sculli", "Second Order"} {
					list = append(list, w.add(estOp(cls(m != "Dodin"), &estimateSpec{Kind: kind, K: k, PFail: pf, Methods: m})))
				}
				list = append(list,
					w.add(estOp(classCheap, &estimateSpec{Kind: kind, K: k, PFail: pf, Methods: "First Order", Bounds: true})),
					w.add(estOp(cls(false), &estimateSpec{Kind: kind, K: k, PFail: pf, Methods: "First Order",
						Trials: 20000, Seed: mcSeed(rng), Quantiles: []float64{0.5, 0.9, 0.99}})))
			}
		}
		list = append(list,
			w.add(op{route: "/v1/schedule", class: classHeavy, sel: selGenerator,
				sched: &scheduleSpec{Kind: kind, K: 14, Procs: 4, PFail: 0.01, Trials: 5000, Seed: mcSeed(rng)}}),
			w.add(op{route: "/v1/sweep", class: classHeavy, sel: selGenerator,
				sweep: &sweepSpec{Kind: kind, K: 10, Trials: 5000, Seed: mcSeed(rng)}}))
	}
	cheapPerPass := 0
	for _, id := range list {
		if w.ops[id].class == classCheap {
			cheapPerPass++
		}
	}
	// Whole passes per segment (see leastStolen), so every segment
	// holds the same jobs, and enough that the kept segments give the
	// cheap p99 its samples.
	passes := max(1, (seconds+13)/27) * w.segments // ~3 s a pass
	for passes/w.segments*w.keep*cheapPerPass < minTailSamples {
		passes += w.segments
	}
	// Each pass runs the list in its own seeded order. The daemon's peak
	// RSS hangs on which large allocations meet between two collections;
	// fresh orders make it the peak of many draws, not a draw of the seed.
	for p := 0; p < passes; p++ {
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		for _, id := range list {
			w.items = append(w.items, item{op: id})
		}
	}
	for i := range w.ops {
		w.warm = append(w.warm, i)
	}
	return w
}

func estOp(class string, s *estimateSpec) op {
	return op{route: "/v1/estimate", class: class, sel: selGenerator, est: s}
}

// cli returns the reference command for o: the CLI invocation whose
// -format json output the service must match byte for byte once timing
// fields are zeroed. graphFile holds o.graph for inline ops.
func (o *op) cli(graphFile string) []string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	switch {
	case o.est != nil:
		s := o.est
		a := []string{"makespan", "-format", "json"}
		if s.Kind != "" {
			a = append(a, "-kind", s.Kind, "-k", strconv.Itoa(s.K))
		} else {
			a = append(a, "-graph", graphFile)
		}
		a = append(a, "-pfail", f(s.PFail), "-methods", s.Methods, "-seed", strconv.FormatUint(s.Seed, 10))
		if s.Tolerance > 0 {
			a = append(a, "-tolerance", f(s.Tolerance))
		} else {
			a = append(a, "-trials", strconv.Itoa(s.Trials))
		}
		if s.Bounds {
			a = append(a, "-bounds")
		}
		if len(s.Quantiles) > 0 {
			a = append(a, "-quantiles", joinFloats(s.Quantiles))
		}
		return a
	case o.sched != nil:
		s := o.sched
		a := []string{"schedsim", "-format", "json", "-kind", s.Kind, "-k", strconv.Itoa(s.K),
			"-procs", strconv.Itoa(s.Procs), "-pfail", f(s.PFail), "-trials", strconv.Itoa(s.Trials),
			"-seed", strconv.FormatUint(s.Seed, 10)}
		if len(s.Quantiles) > 0 {
			a = append(a, "-quantiles", joinFloats(s.Quantiles))
		}
		return a
	case o.sweep != nil:
		s := o.sweep
		return []string{"experiments", "-sweep", "-format", "json", "-sweep-kind", s.Kind,
			"-sweep-k", strconv.Itoa(s.K), "-trials", strconv.Itoa(s.Trials), "-seed", strconv.FormatUint(s.Seed, 10)}
	}
	panic("op without a spec") // buildWorkload sets one on every op
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
