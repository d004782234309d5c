package main

import (
	"fmt"
	"runtime"
	"time"

	"hetsched"
	"hetsched/internal/characterize"
)

// The paper's Section V comparison, as hmsim runs it by default.
const (
	reproduceArrivals = 5000
	reproduceUtil     = 0.90
)

// reproduceSystems are Experiment's four systems in its order.
var reproduceSystems = []string{"base", "optimal", "energy-centric", "proposed"}

// runReproduce is one fresh-process reproduction: New with the default ANN
// over a warm cache, then Experiment and FormatFigures. Traced, Experiment
// is replaced by the calls it makes, in its order (the workload, then
// RunSystem per system), so each system gets its own span; the output
// digest must come out the same as the untraced run's.
func runReproduce(o childOpts, rec *recorder) (childResult, error) {
	var res childResult
	replays := characterize.ReplayCount()
	setupID := rec.begin(0, 1, "", "setup")
	sys, err := newSystem("ann", o, rec, setupID, 1)
	rec.end(setupID)
	if err != nil {
		return res, err
	}
	kernels := characterize.ReplayCount() - replays
	var tp *timedPredictor
	if rec != nil {
		if sys.Pred, tp, err = wrapPredictor(sys.Pred, rec); err != nil {
			return res, err
		}
	}
	ready()

	start := time.Now()
	runID := rec.begin(0, 1, "", "run")
	var (
		out  *hetsched.ExperimentResult
		text string
		ms   [2]runtime.MemStats
	)
	if rec == nil {
		out, err = sys.Experiment(hetsched.ExperimentConfig{Arrivals: reproduceArrivals, Utilization: reproduceUtil, Seed: o.seed})
	} else {
		out = new(hetsched.ExperimentResult)
		runtime.ReadMemStats(&ms[0])
		err = tracedExperiment(sys, o.seed, out, rec, tp, runID)
		runtime.ReadMemStats(&ms[1])
	}
	if err != nil {
		return res, err
	}
	id := rec.begin(runID, 1, "report", "hetsched.FormatFigures")
	text = hetsched.FormatFigures(out)
	rec.end(id)
	rec.end(runID)
	res.RunS = time.Since(start).Seconds()

	res.Ops = 1
	res.Digest = digest([]byte(text))
	for i, m := range out.Systems() {
		if m.Jobs != reproduceArrivals || m.Completed != reproduceArrivals {
			res.fail("%s completed %d of %d jobs (want %d)", reproduceSystems[i], m.Completed, m.Jobs, reproduceArrivals)
		}
	}
	if o.seed == defaultSeed && res.Digest != reproduceDigest {
		res.fail("figures digest %s differs from the recorded %s", res.Digest, reproduceDigest)
	}
	arrivals := float64(len(reproduceSystems) * reproduceArrivals)
	res.Throughput = arrivals / res.RunS
	if rec != nil {
		calls, inferS := tp.annStats()
		res.Layers = map[string]float64{
			"characterize.kernels_run": float64(kernels),
			"ann.infer_calls":          float64(calls),
			"ann.infer_s":              inferS,
			"core.allocs_per_arrival":  float64(ms[1].Mallocs-ms[0].Mallocs) / arrivals,
			"core.arrivals_per_s":      arrivals / layerSelf(rec.snapshot())["core"],
		}
	}
	return res, nil
}

// tracedExperiment runs Experiment's steps one call at a time under spans.
func tracedExperiment(sys *hetsched.System, seed int64, out *hetsched.ExperimentResult, rec *recorder, tp *timedPredictor, runID int) error {
	id := rec.begin(runID, 1, "scenario", "System.Workload")
	jobs, err := sys.Workload(reproduceArrivals, reproduceUtil, seed)
	rec.end(id)
	if err != nil {
		return err
	}
	slots := []*hetsched.Metrics{&out.Base, &out.Optimal, &out.EnergyCentric, &out.Proposed}
	for i, name := range reproduceSystems {
		id := rec.begin(runID, 1, "core", "sim."+name)
		tp.parent.Store(int64(id))
		tp.trace.Store(1)
		*slots[i], err = sys.RunSystem(name, jobs, hetsched.SimConfig{})
		tp.parent.Store(0)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
