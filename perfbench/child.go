package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"hetsched"
	"hetsched/internal/ann"
	"hetsched/internal/characterize"
	"hetsched/internal/energy"
)

// childOpts is one measured repetition, run in a fresh process so the
// process-wide sync.Once caches (characterize.Default/Augmented,
// ann.DefaultPredictor) cannot hide set-up cost from a later repetition.
type childOpts struct {
	workload  string
	seed      int64  // the repetition's workload seed
	cacheDir  string // warm characterization cache owned by the run
	traced    bool
	spansPath string // where a traced child writes its spans
	setupOnly bool   // serve: exit once the daemon is ready
	requestsA int    // serve: phase A request count
	blocksB   int    // serve: phase B blocks of blockSize requests
}

// childResult is what a repetition reports to the parent on its last
// line of output. The parent measures set-up time and peak memory itself.
type childResult struct {
	RunS       float64            `json:"run_s"`
	Ops        int                `json:"ops"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Digest     string             `json:"digest"`
	Throughput float64            `json:"throughput"`
	BlockRates []float64          `json:"block_rates,omitempty"` // serve: phase B rate of each block
	LatencyMs  []float64          `json:"latency_ms,omitempty"`
	LagMs      []float64          `json:"lag_ms,omitempty"`
	KindMs     map[string]float64 `json:"kind_p50_ms,omitempty"`
	GCPauseS   float64            `json:"gc_pause_s"` // whole process
	GCCycles   int                `json:"gc_cycles"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// fail counts one failed operation and keeps the first few reasons.
func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// workers is the worker count every workload gives the program: nproc.
func workers() int { return runtime.GOMAXPROCS(0) }

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ready tells the parent that set-up is over; the parent timestamps the
// line as it arrives.
func ready() { fmt.Println("ready") }

func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var o childOpts
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "warm characterization cache")
	fs.BoolVar(&o.traced, "trace", false, "record spans")
	fs.StringVar(&o.spansPath, "spans", "", "spans output file")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "serve: stop once ready")
	fs.IntVar(&o.requestsA, "requests-a", 0, "serve: phase A requests")
	fs.IntVar(&o.blocksB, "blocks-b", 0, "serve: phase B blocks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	var (
		res childResult
		err error
	)
	switch o.workload {
	case "warm":
		err = warmCache(o.cacheDir)
	case "reproduce":
		res, err = runReproduce(o, rec)
	case "serve":
		res, err = runServe(o, rec)
	case "sweep":
		res, err = runSweep(o, rec)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.GCPauseS, res.GCCycles = float64(ms.PauseTotalNs)/1e9, int(ms.NumGC)
	if rec != nil {
		spans := rec.snapshot()
		if res.Layers == nil {
			res.Layers = make(map[string]float64)
		}
		for k, v := range layerSelf(spans) {
			res.Layers["self."+k] = v
		}
		if _, ok := res.Layers["trace.covered_s"]; !ok {
			res.Layers["trace.covered_s"] = coveredS(spans)
		}
		if o.spansPath != "" {
			if err := writeSpans(o.spansPath, spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench child:", err)
				return 1
			}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// warmCache characterizes the canonical and augmented variant sets into
// dir, the two DBs hetsched.New reads through its persistent cache. It
// runs untimed, once per benchmark run.
func warmCache(dir string) error {
	em := energy.NewDefault()
	opts := characterize.Options{Workers: workers()}
	for _, vs := range [][]characterize.Variant{characterize.CanonicalVariants(), characterize.AugmentedVariants()} {
		if _, _, err := characterize.CharacterizeCached(vs, em, opts, dir); err != nil {
			return err
		}
	}
	return nil
}

// newSystem builds the System a workload serves from, exactly as the
// CLIs and the daemon do: hetsched.New over the warm cache directory.
//
// Traced, it first fills the two process-wide caches that New reaches
// for the default ANN (the augmented training DB and the trained bag),
// each under its own span. New then finds both filled; what is left of
// it, with a warm cache, is loading the evaluation and training DBs from
// disk, which is why its span counts as characterization. The check on
// Setup below fails the run if the cache was not warm.
func newSystem(spec string, o childOpts, rec *recorder, parent, trace int) (*hetsched.System, error) {
	ps, err := hetsched.ParsePredictorSpec(spec)
	if err != nil {
		return nil, err
	}
	if rec != nil && ps.IsSingle("ann") {
		id := rec.begin(parent, trace, "characterize", "characterize.Augmented")
		_, err := characterize.Augmented()
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin(parent, trace, "ann", "ann.DefaultPredictor")
		_, _, err = ann.DefaultPredictor()
		rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	id := rec.begin(parent, trace, "characterize", "hetsched.New")
	sys, err := hetsched.New(hetsched.Options{Spec: ps, Workers: workers(), CacheDir: o.cacheDir})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if !sys.Setup.EvalFromCache || !sys.Setup.TrainFromCache {
		return nil, fmt.Errorf("characterization cache %s was not warm", o.cacheDir)
	}
	return sys, nil
}
