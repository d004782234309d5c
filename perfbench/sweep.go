package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"hetsched"
	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/scenario"
	"hetsched/internal/sweep"
)

// The hmsweep grid the sweep workload runs: three arrival models × three
// utilizations × four systems under a fault plan, plus one bursty
// deadline-SLO scenario grid over the same utilizations.
const (
	sweepArrivals = 1500
	sweepFaults   = "mttf=1e7,recover=1e5,stuck=4e7,noise=0.02,seed=%d"
	sweepScenario = "bursty:burst=2,quiet=0.5,jobs=1500;slo=deadline:slack=6,classes=hi@0.3@1.25"
)

var (
	sweepUtils   = []float64{0.5, 0.75, 0.9}
	sweepModels  = []core.ArrivalModel{core.ArrivalUniform, core.ArrivalPoisson, core.ArrivalBursty}
	sweepSystems = []string{"base", "optimal", "energy-centric", "proposed"}
)

// sweepConfigs returns the two grids for a workload seed.
func sweepConfigs(seed int64) (grid, slo sweep.Config, err error) {
	faults, err := hetsched.ParseFaultPlan(fmt.Sprintf(sweepFaults, seed))
	if err != nil {
		return grid, slo, err
	}
	spec, err := hetsched.ParseScenarioSpec(sweepScenario)
	if err != nil {
		return grid, slo, err
	}
	grid = sweep.Config{Arrivals: sweepArrivals, Utilizations: sweepUtils, Models: sweepModels,
		Systems: sweepSystems, Sim: core.SimConfig{Faults: faults}, Seed: seed, Workers: workers()}
	slo = grid
	slo.Models = nil
	slo.Scenario = &spec
	return grid, slo, nil
}

// runSweep is one fresh-process sweep: New with the oracle predictor, then
// both grids through sweep.Run and the CSV through sweep.WriteCSV. Traced,
// each of those calls gets a span, the predictor is wrapped so that any
// call reaching the ANN would be counted, and after the measured run
// splitSweep times the grids' parts one call at a time.
func runSweep(o childOpts, rec *recorder) (childResult, error) {
	var res childResult
	replays := characterize.ReplayCount()
	setupID := rec.begin(0, 1, "", "setup")
	sys, err := newSystem("oracle", o, rec, setupID, 1)
	rec.end(setupID)
	if err != nil {
		return res, err
	}
	var tp *timedPredictor
	if rec != nil {
		if sys.Pred, tp, err = wrapPredictor(sys.Pred, rec); err != nil {
			return res, err
		}
	}
	grid, slo, err := sweepConfigs(o.seed)
	if err != nil {
		return res, err
	}
	ready()

	start := time.Now()
	runID := rec.begin(0, 1, "", "run")
	var (
		points [2][]sweep.Point
		ms     [2]runtime.MemStats
		sweepS float64
	)
	if rec != nil {
		runtime.ReadMemStats(&ms[0])
	}
	for i, cfg := range []sweep.Config{grid, slo} {
		t := time.Now()
		id := rec.begin(runID, 1, "sweep", "sweep.Run")
		if tp != nil {
			tp.parent.Store(int64(id))
			tp.trace.Store(1)
		}
		points[i], err = sweep.Run(sys.Eval, sys.Energy, sys.Pred, cfg)
		if tp != nil {
			tp.parent.Store(0)
		}
		rec.end(id)
		sweepS += time.Since(t).Seconds()
		if err != nil {
			return res, err
		}
	}
	if rec != nil {
		runtime.ReadMemStats(&ms[1])
	}
	var csv bytes.Buffer
	id := rec.begin(runID, 1, "sweep", "sweep.WriteCSV")
	for _, p := range points {
		if err := sweep.WriteCSV(&csv, p); err != nil {
			return res, err
		}
	}
	rec.end(id)
	rec.end(runID)
	res.RunS = time.Since(start).Seconds()

	res.Ops = 1
	res.Digest = digest(csv.Bytes())
	want := (len(sweepModels) + 1) * len(sweepUtils) * len(sweepSystems)
	if n := len(points[0]) + len(points[1]); n != want {
		res.fail("sweep produced %d points, want %d", n, want)
	}
	arrivals := 0
	for _, ps := range points {
		for _, p := range ps {
			arrivals += p.Metrics.Jobs
			if p.Metrics.Completed != p.Metrics.Jobs || p.Metrics.Jobs == 0 {
				res.fail("%s at %.2f/%s completed %d of %d jobs", p.System, p.Utilization, p.Model, p.Metrics.Completed, p.Metrics.Jobs)
			}
		}
	}
	if o.seed == defaultSeed && res.Digest != sweepDigest {
		res.fail("CSV digest %s differs from the recorded %s", res.Digest, sweepDigest)
	}
	res.Throughput = float64(arrivals) / res.RunS
	if rec == nil {
		return res, nil
	}

	// The layers' share of the measured run is taken before the split
	// step adds its spans.
	covered := coveredS(rec.snapshot())
	slots, splitArrivals, err := splitSweep(sys, grid, slo, o.seed, rec, tp)
	if err != nil {
		return res, err
	}
	sum, longest := 0.0, 0.0
	for _, s := range slots {
		sum += s
		longest = max(longest, s)
	}
	calls, inferS := tp.annStats()
	res.Layers = map[string]float64{
		"trace.covered_s":          covered,
		"characterize.kernels_run": float64(characterize.ReplayCount() - replays),
		"ann.infer_calls":          float64(calls),
		"ann.infer_s":              inferS,
		"core.allocs_per_arrival":  float64(ms[1].Mallocs-ms[0].Mallocs) / float64(arrivals),
		"core.arrivals_per_s":      float64(splitArrivals) / sum,
		"sweep.cell_s.max":         longest,
		"sweep.cell_s.sum":         sum,
		"sweep.parallel_eff":       sum / (sweepS * float64(grid.Workers)),
	}
	return res, nil
}

// splitSweep splits the sweep's work by layer with calls the benchmark
// times itself, after the measured run and outside the sweep.Run spans.
// For every cell of both grids it generates a workload of the cell's shape
// (a scenario span) and runs each system on it through hetsched's
// RunSystem with the grid's machine, one at a time (a core span per
// system). The workloads come from seeds of the benchmark's own, not from
// sweep.Run's per-cell seeds, so they have the grid's shape but are other
// arrival streams. It returns the duration of every (cell, system) slot
// and the arrivals simulated.
func splitSweep(sys *hetsched.System, grid, slo sweep.Config, seed int64, rec *recorder, tp *timedPredictor) ([]float64, int, error) {
	const trace = 2
	splitID := rec.begin(0, trace, "", "split")
	defer rec.end(splitID)
	appIDs := core.AllAppIDs(sys.Eval)
	cores := len(core.DefaultSimConfig().CoreSizesKB)
	sloSim := slo.Sim
	slo.Scenario.ApplySim(&sloSim)

	type cell struct {
		sim  core.SimConfig
		jobs []core.Job
	}
	var cells []cell
	cellSeed := func() int64 { return seed*64 + int64(len(cells)) }
	for _, util := range grid.Utilizations {
		for _, model := range grid.Models {
			id := rec.begin(splitID, trace, "scenario", "core.GenerateWorkload")
			horizon, err := core.HorizonForUtilization(sys.Eval, appIDs, grid.Arrivals, cores, util)
			var jobs []core.Job
			if err == nil {
				jobs, err = core.GenerateWorkload(core.WorkloadConfig{Arrivals: grid.Arrivals, AppIDs: appIDs,
					HorizonCycles: horizon, Model: model, Seed: cellSeed()})
			}
			rec.end(id)
			if err != nil {
				return nil, 0, err
			}
			cells = append(cells, cell{grid.Sim, jobs})
		}
	}
	for _, util := range slo.Utilizations {
		id := rec.begin(splitID, trace, "scenario", "scenario.Spec.Generate")
		jobs, err := slo.Scenario.Generate(scenario.Params{DB: sys.Eval, AppIDs: appIDs, Arrivals: slo.Scenario.Jobs,
			Cores: cores, Utilization: util, Seed: cellSeed()})
		rec.end(id)
		if err != nil {
			return nil, 0, err
		}
		cells = append(cells, cell{sloSim, jobs})
	}

	var slots []float64
	arrivals := 0
	for _, c := range cells {
		for _, name := range sweepSystems {
			t := time.Now()
			id := rec.begin(splitID, trace, "core", "sim."+name)
			tp.parent.Store(int64(id))
			tp.trace.Store(trace)
			m, err := sys.RunSystem(name, c.jobs, c.sim)
			tp.parent.Store(0)
			rec.end(id)
			slots = append(slots, time.Since(t).Seconds())
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", name, err)
			}
			if m.Completed != len(c.jobs) {
				return nil, 0, fmt.Errorf("%s completed %d of %d jobs", name, m.Completed, len(c.jobs))
			}
			arrivals += len(c.jobs)
		}
	}
	return slots, arrivals, nil
}
