package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/report"
	"repro/internal/schedmc"
	"repro/internal/service"
	"repro/internal/spgraph"
)

// Replay passes. The cold pass runs every distinct op once against an
// empty store, so artifact calls build; the warm pass repeats them
// against the filled store, as a warm server would serve them.
const (
	passCold = 0
	passWarm = 1
)

// layerCall is one replayed call into a layer's public API.
type layerCall struct {
	op, pass int
	layer    string
	dur      time.Duration
	allocKB  float64 // runtime.MemStats.TotalAlloc delta
	trials   int     // Monte Carlo trials the call ran
	adaptive bool
	built    bool // an artifact call that missed and built
	bytes    int  // encoded response size
}

// replayer calls, for one op at a time, the public functions the
// service handler calls, in its order and with its worker count, and
// times each call from outside. It keeps its own artifact store, like
// a replica's but unbounded, so the cold pass builds every artifact
// once and the warm pass finds every one.
type replayer struct {
	ctx      context.Context
	store    *artifact.Store
	workers  int
	gen      map[string]*artifact.Graph      // generator memo, like the registry's
	snaps    map[string]*montecarlo.Snapshot // adaptive snapshots by body
	calls    []layerCall
	op, pass int
	// mismatches counts replayed documents whose timing-zeroed bytes
	// differ from the reference: a replay that drifted from the handler.
	mismatches int
}

func newReplayer(ctx context.Context, w *workload) *replayer {
	return &replayer{
		ctx: ctx, store: artifact.NewStore(0), workers: w.workers,
		gen: map[string]*artifact.Graph{}, snaps: map[string]*montecarlo.Snapshot{},
	}
}

// call runs fn as one span of layer and returns its record's index.
func (rp *replayer) call(layer string, fn func() error) (int, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	dur := time.Since(t0)
	runtime.ReadMemStats(&m1)
	rp.calls = append(rp.calls, layerCall{op: rp.op, pass: rp.pass, layer: layer, dur: dur,
		allocKB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024})
	return len(rp.calls) - 1, err
}

// resolve is call for an artifact lookup of kind; it records whether
// the lookup built.
func (rp *replayer) resolve(kind string, fn func() error) error {
	before := rp.store.Stats()[kind].Misses
	i, err := rp.call("artifact."+kind, fn)
	rp.calls[i].built = rp.store.Stats()[kind].Misses > before
	return err
}

// replayAll runs the cold pass then the warm pass over every op.
func (rp *replayer) replayAll(ops []op, refs [][]byte) error {
	for _, pass := range []int{passCold, passWarm} {
		rp.pass = pass
		for i := range ops {
			rp.op = i
			if err := rp.replay(&ops[i], refs[i]); err != nil {
				return fmt.Errorf("replay %s %s: %w", ops[i].route, ops[i].body[:min(len(ops[i].body), 80)], err)
			}
		}
	}
	return nil
}

func (rp *replayer) replay(o *op, ref []byte) error {
	if _, err := rp.call("lb.route_key."+o.sel, func() error {
		sel, err := service.ExtractSelector(o.body)
		if err != nil {
			return err
		}
		_, err = sel.RoutingKey()
		return err
	}); err != nil {
		return err
	}
	ga, err := rp.graph(o)
	if err != nil {
		return err
	}
	var doc bytes.Buffer
	switch {
	case o.est != nil:
		err = rp.estimate(ga, o.est, &doc)
	case o.sched != nil:
		err = rp.schedule(ga, o.sched, &doc)
	default:
		err = rp.sweep(ga, o.sweep, &doc)
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(normalize(doc.Bytes()), ref) {
		rp.mismatches++
	}
	return nil
}

// graph resolves the op's graph the way the service's resolve does: a
// resident generated graph is reused, otherwise generated (or decoded)
// and registered.
func (rp *replayer) graph(o *op) (*artifact.Graph, error) {
	kind, k := "", 0
	switch {
	case o.est != nil:
		kind, k = o.est.Kind, o.est.K
	case o.sched != nil:
		kind, k = o.sched.Kind, o.sched.K
	case o.sweep != nil:
		kind, k = o.sweep.Kind, o.sweep.K
	}
	memo := fmt.Sprintf("%s/%d", kind, k)
	if ga, ok := rp.gen[memo]; ok && kind != "" && rp.store.Resident(ga) {
		rp.store.Touch(ga)
		return ga, nil
	}
	var g *dag.Graph
	var err error
	if kind != "" {
		_, err = rp.call("linalg.generate", func() error {
			g, err = linalg.Generate(linalg.Factorization(kind), k, linalg.KernelTimes{})
			return err
		})
	} else {
		g = new(dag.Graph)
		_, err = rp.call("dag.decode", func() error { return json.Unmarshal(o.graph, g) })
	}
	if err != nil {
		return nil, err
	}
	var ga *artifact.Graph
	err = rp.resolve(artifact.KindGraph, func() error {
		ga, _, err = rp.store.GraphContext(rp.ctx, g)
		return err
	})
	if kind != "" && err == nil {
		rp.gen[memo] = ga
	}
	return ga, err
}

func modelFor(ga *artifact.Graph, pfail float64) (failure.Model, error) {
	return failure.FromPfail(pfail, ga.G.MeanWeight())
}

func infoFor(ga *artifact.Graph, model failure.Model) (report.GraphInfo, report.ModelInfo) {
	return report.GraphInfo{Tasks: ga.G.NumTasks(), Edges: ga.G.NumEdges(), MeanWeight: ga.G.MeanWeight()},
		report.ModelInfo{Lambda: model.Lambda, PFailMeanTask: model.PFail(ga.G.MeanWeight()), MTBF: model.MTBF()}
}

func (rp *replayer) estimate(ga *artifact.Graph, s *estimateSpec, doc *bytes.Buffer) error {
	model, err := modelFor(ga, s.PFail)
	if err != nil {
		return err
	}
	est := report.Estimate{FailureFree: ga.D0}
	est.Graph, est.Model = infoFor(ga, model)
	methods, err := experiments.ParseMethods(s.Methods)
	if err != nil {
		return err
	}
	if s.Bounds {
		var lo, hi float64
		if _, err := rp.call("bounds.bracket", func() error {
			sw := ga.Sweeper()
			defer ga.PutSweeper(sw)
			lo, hi, err = sw.Bracket(model, 0)
			return err
		}); err != nil {
			return err
		}
		est.Bracket = &report.BracketInfo{Lower: lo, Upper: hi}
	}
	for _, m := range methods {
		var v float64
		switch m {
		case experiments.MethodDodin:
			v, err = rp.dodin(ga, model)
		case experiments.MethodFirstOrder:
			_, err = rp.call("core.first_order", func() error {
				pe := ga.PathEvaluator()
				v = core.FirstOrderWith(pe, model).Estimate
				ga.PutPathEvaluator(pe)
				return nil
			})
		default:
			layer := "analytic." + strings.ReplaceAll(strings.ToLower(string(m)), " ", "_")
			_, err = rp.call(layer, func() error {
				v, _, err = experiments.Estimate(m, ga.G, model, 0)
				return err
			})
		}
		if err != nil {
			return err
		}
		est.Methods = append(est.Methods, report.MethodEstimate{Method: string(m), Estimate: v})
	}
	if s.Trials > 0 || s.Tolerance > 0 {
		if est.MonteCarlo, err = rp.monteCarlo(ga, model, s); err != nil {
			return err
		}
	}
	_, err = rp.encode(func() error { return report.WriteEstimateJSON(doc, est) }, doc)
	return err
}

// dodin resolves the Dodin reduction plan and replays it.
func (rp *replayer) dodin(ga *artifact.Graph, model failure.Model) (float64, error) {
	var plan *spgraph.Plan
	err := rp.resolve(artifact.KindPlan, func() error {
		var err error
		plan, err = rp.store.PlanContext(rp.ctx, ga, 0, model)
		return err
	})
	if err != nil {
		return 0, err
	}
	var v float64
	_, err = rp.call("spgraph.dodin_run", func() error {
		res, err := plan.Run(model)
		v = res.Estimate
		return err
	})
	return v, err
}

// monteCarlo resolves the estimator and runs it: fixed trials, fixed
// trials with quantiles, or adaptive resumed from this body's last
// snapshot (the service keeps those in its store; a converged snapshot
// answers with no trials run).
func (rp *replayer) monteCarlo(ga *artifact.Graph, model failure.Model, s *estimateSpec) (*report.MonteCarloInfo, error) {
	var warm *montecarlo.Estimator
	if err := rp.resolve(artifact.KindEstimator, func() error {
		var err error
		warm, err = rp.store.EstimatorContext(rp.ctx, ga, model, montecarlo.FullReexecution)
		return err
	}); err != nil {
		return nil, err
	}
	var res montecarlo.Result
	var sketch *montecarlo.QuantileSketch
	i, err := rp.call("montecarlo.run", func() error {
		run, err := warm.WithConfig(montecarlo.Config{Trials: s.Trials, Seed: s.Seed, Workers: rp.workers, Tolerance: s.Tolerance})
		if err != nil {
			return err
		}
		switch {
		case s.Tolerance > 0:
			key := string(ga.ID) + "/" + string(mustJSON(s))
			var snap *montecarlo.Snapshot
			res, snap, err = run.ResumeAdaptiveContext(rp.ctx, rp.snaps[key], nil)
			if err == nil {
				rp.snaps[key] = snap
				sketch = snap.Sketch()
			}
		case len(s.Quantiles) > 0:
			res, sketch, err = run.RunQuantilesContext(rp.ctx)
		default:
			res, err = run.RunContext(rp.ctx)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.calls[i].trials, rp.calls[i].adaptive = res.TrialsRun, s.Tolerance > 0
	mc := report.MonteCarloInfoFrom(res, s.Seed)
	if s.Tolerance > 0 {
		mc.Adaptive = report.AdaptiveInfoFrom(res, s.Tolerance, 0, 0)
	}
	for _, q := range s.Quantiles {
		mc.Quantiles = append(mc.Quantiles, report.QuantileValue{Q: q, Value: sketch.Quantile(q)})
	}
	return mc, nil
}

func (rp *replayer) schedule(ga *artifact.Graph, s *scheduleSpec, doc *bytes.Buffer) error {
	model, err := modelFor(ga, s.PFail)
	if err != nil {
		return err
	}
	policies, err := schedmc.ParsePolicies("both")
	if err != nil {
		return err
	}
	out := report.Schedule{Procs: s.Procs, CriticalPath: ga.D0}
	out.Graph, out.Model = infoFor(ga, model)
	for _, pol := range policies {
		var warm *schedmc.Estimator
		if err := rp.resolve(artifact.KindSchedule, func() error {
			var err error
			warm, err = rp.store.ScheduleEstimatorContext(rp.ctx, ga, pol, s.Procs, model)
			return err
		}); err != nil {
			return err
		}
		fs := warm.Schedule()
		p := report.SchedulePolicy{Policy: string(pol), Label: pol.Label(), FailureFree: fs.Makespan,
			Efficiency: fs.Efficiency(), ChainEdges: fs.ChainEdges}
		var res montecarlo.Result
		var sketch *montecarlo.QuantileSketch
		i, err := rp.call("schedmc.run", func() error {
			run, err := warm.WithConfig(schedmc.Config{Trials: s.Trials, Seed: s.Seed, Workers: rp.workers})
			if err != nil {
				return err
			}
			if len(s.Quantiles) > 0 {
				res, sketch, err = run.RunQuantilesContext(rp.ctx)
			} else {
				res, err = run.RunContext(rp.ctx)
			}
			return err
		})
		if err != nil {
			return err
		}
		rp.calls[i].trials = res.TrialsRun
		p.MonteCarlo = report.MonteCarloInfoFrom(res, s.Seed)
		for _, q := range s.Quantiles {
			p.MonteCarlo.Quantiles = append(p.MonteCarlo.Quantiles, report.QuantileValue{Q: q, Value: sketch.Quantile(q)})
		}
		out.Policies = append(out.Policies, p)
	}
	_, err = rp.encode(func() error { return report.WriteScheduleJSON(doc, out) }, doc)
	return err
}

func (rp *replayer) sweep(ga *artifact.Graph, s *sweepSpec, doc *bytes.Buffer) error {
	spec := experiments.SweepSpec{Fact: linalg.Factorization(s.Kind), K: s.K, PFails: experiments.DefaultSweep().PFails}
	opts := experiments.Options{Trials: s.Trials, Seed: s.Seed, Workers: rp.workers, Context: rp.ctx, Artifacts: rp.store}
	var res experiments.SweepResult
	if _, err := rp.call("experiments.sweep", func() error {
		var err error
		res, err = experiments.RunSweepGraph(ga, spec, opts)
		return err
	}); err != nil {
		return err
	}
	_, err := rp.encode(func() error { return report.WriteSweepJSON(doc, res, opts.Methods) }, doc)
	return err
}

// encode times the response encoding into doc.
func (rp *replayer) encode(fn func() error, doc *bytes.Buffer) (int, error) {
	i, err := rp.call("report.encode", fn)
	rp.calls[i].bytes = doc.Len()
	return i, err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // specs are plain structs
	}
	return b
}
