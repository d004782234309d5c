// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads (reproduce, serve, sweep) for a fixed time, every
// measured repetition in a fresh child process, checks the program's
// outputs, and prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run, as one JSON object on its last line.
//
// Build and run it from the repository root with perfbench/run.sh; see
// README.md for the workloads, metrics and output checks.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the workload seed the recorded digests belong to; the
// first repetition of every run uses it.
const defaultSeed = 1

// Output digests at defaultSeed, recorded on this revision of the program.
// A change that alters any simulated statistic changes them.
const (
	reproduceDigest = "e1f9d29f3a229ef54b622560511d40ca1ebe3c8c337c1837f86a8d273fa54f44"
	sweepDigest     = "4790df521823370d24d6c6573170a9418f73b2cf76fedb271e37e55a55bde9b2"
)

// runLimit bounds one benchmark run, children included.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(parentMain(os.Args[1:]))
}

// machine identifies the host a result was measured on. Results are only
// comparable between identical machines.
type machine struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisMachine() machine {
	m := machine{CPU: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the result kept on disk with what compare needs.
type record struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Trace    bool                 `json:"trace"`
	Machine  machine              `json:"machine"`
	Result   result               `json:"result"`
	Samples  map[string][]float64 `json:"samples"`
}

// bench is one benchmark run in progress.
type bench struct {
	exe, work, warm string
	workload        string
	seed            int64
	seconds         float64
	start           time.Time
	ctx             context.Context

	attempted, failed int
	errors            []string
	samples           map[string][]float64
}

// fail counts n failed operations (none when n is 0) and keeps the first
// reasons.
func (b *bench) fail(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	b.failed += n
	if len(b.errors) < 20 {
		b.errors = append(b.errors, fmt.Sprintf(format, args...))
	}
}

func (b *bench) elapsed() float64 { return time.Since(b.start).Seconds() }

func (b *bench) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

func parentMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "reproduce, serve or sweep; all runs each of them untraced, then traced")
	seed := fs.Int64("seed", defaultSeed, "seed the run's inputs are made from")
	seconds := fs.Int("seconds", 40, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// run.sh sets the directory the runs keep their files in: the same
	// one that holds the Go build cache and this binary.
	buildDir := os.Getenv("PERFBENCH_BUILD_DIR")
	if buildDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: PERFBENCH_BUILD_DIR is not set; run the benchmark through perfbench/run.sh")
		return 2
	}
	type mode struct {
		workload string
		traced   bool
	}
	var modes []mode
	switch *workload {
	case "reproduce", "serve", "sweep":
		modes = []mode{{*workload, *traceFlag == 1}}
	case "all":
		for _, w := range []string{"reproduce", "serve", "sweep"} {
			modes = append(modes, mode{w, false}, mode{w, true})
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: -workload must be reproduce, serve, sweep or all, not %q\n", *workload)
		return 2
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	for _, m := range modes {
		if err := run(m.workload, *seed, *seconds, m.traced, buildDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

func run(workload string, seed int64, seconds int, traced bool, buildDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "run-"+workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// A canceled run (time limit, SIGINT or SIGTERM) kills the child it is
	// waiting for.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	b := &bench{exe: exe, work: work, warm: filepath.Join(work, "warm"), workload: workload,
		seed: seed, seconds: float64(seconds), ctx: ctx, samples: make(map[string][]float64)}
	mach := thisMachine()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%t cpu=%q gomaxprocs=%d go=%s\n",
		workload, seed, seconds, traced, mach.CPU, mach.GOMAXPROCS, mach.Go)

	// Warm the characterization cache, untimed, in the run's own
	// directory; the clock starts after it.
	if _, err := b.child("warm"); err != nil {
		return fmt.Errorf("warming the characterization cache: %w", err)
	}
	b.start = time.Now()
	var metrics map[string]float64
	var defs []metricDef
	if traced {
		metrics, defs = b.traced(), perLayer
	} else {
		switch workload {
		case "serve":
			metrics = b.serve()
		default:
			metrics = b.repeated()
		}
		defs = endToEnd
	}

	res := result{Correct: b.failed == 0 && b.attempted > 0, Attempted: max(b.attempted, 1), Failed: b.failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
		fmt.Printf("  %-32s %14.6g %s\n", d.name, metrics[d.name], d.unit)
	}
	for _, e := range b.errors {
		fmt.Println("  FAILED:", e)
	}
	fmt.Printf("  attempted %d, failed %d, measured %.1f s\n", res.Attempted, res.Failed, b.elapsed())
	if err := saveRecord(buildDir, record{Workload: workload, Seed: seed, Trace: traced, Machine: mach,
		Result: res, Samples: b.samples}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// childRun is one finished child process.
type childRun struct {
	setupS float64 // spawn to "ready", measured here
	rssMB  float64 // peak resident memory of the child
	res    childResult
}

// child runs one repetition in a fresh process and waits for it to end.
// Every repetition starts from its own copy of the warm characterization
// cache, since the daemon's serving tier adds the variants it computes.
func (b *bench) child(workload string, args ...string) (childRun, error) {
	var cr childRun
	cache := b.warm
	if workload != "warm" {
		var err error
		if cache, err = os.MkdirTemp(b.work, "cache-"); err != nil {
			return cr, err
		}
		defer os.RemoveAll(cache)
		if err := copyFiles(b.warm, cache); err != nil {
			return cr, err
		}
	}
	args = append([]string{"child", "-workload", workload, "-cache-dir", cache}, args...)
	cmd := exec.CommandContext(b.ctx, b.exe, args...)
	cmd.WaitDelay = 5 * time.Second
	// The child writes its standard error, the daemon's request log
	// included, straight to a file: a pipe would wake this process for
	// every line, and on a few CPUs that costs the daemon throughput.
	stderr, err := os.CreateTemp(b.work, "stderr-")
	if err != nil {
		return cr, err
	}
	defer os.Remove(stderr.Name())
	defer stderr.Close()
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return cr, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return cr, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var last []byte
	for sc.Scan() {
		if sc.Text() == "ready" && cr.setupS == 0 {
			cr.setupS = time.Since(start).Seconds()
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return cr, fmt.Errorf("%s child: %v: %s", workload, err, lastBytes(stderr, 4096))
	}
	if scanErr != nil {
		return cr, scanErr
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if workload == "warm" {
		return cr, nil
	}
	if err := json.Unmarshal(last, &cr.res); err != nil {
		return cr, fmt.Errorf("%s child: bad result line: %v", workload, err)
	}
	return cr, nil
}

// copyFiles copies the files of directory src into directory dst.
func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// lastBytes returns at most the last n bytes of f, trimmed of space.
func lastBytes(f *os.File, n int64) []byte {
	fi, err := f.Stat()
	if err != nil {
		return nil
	}
	b := make([]byte, min(n, fi.Size()))
	k, _ := f.ReadAt(b, fi.Size()-int64(len(b)))
	return bytes.TrimSpace(b[:k])
}

// repSeed is the workload seed of repetition k: the default seed first,
// whose output digest is recorded, then seeds made from the run's seed.
func repSeed(seed int64, k int) int64 {
	if k == 0 {
		return defaultSeed
	}
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z^(z>>31))%(1<<31)) + 1
}

// repeated measures reproduce or sweep: fresh-process repetitions until
// the next one would overrun the run's time (at least three).
func (b *bench) repeated() map[string]float64 {
	var last float64
	for k := 0; b.ctx.Err() == nil && (k < 3 || b.elapsed()+last <= b.seconds); k++ {
		t := time.Now()
		cr, err := b.child(b.workload, "-seed", strconv.FormatInt(repSeed(b.seed, k), 10))
		last = time.Since(t).Seconds()
		b.attempted++
		if err != nil {
			b.fail(1, "repetition %d: %v", k, err)
			continue
		}
		b.attempted += cr.res.Ops - 1
		b.fail(cr.res.Failed, "repetition %d: %s", k, strings.Join(cr.res.Errors, "; "))
		b.add("setup_s", cr.setupS)
		b.add("run_s", cr.res.RunS)
		b.add("latency_ms", 1000*(cr.setupS+cr.res.RunS))
		b.add("throughput_rps", cr.res.Throughput)
		b.add("peak_rss_mb", cr.rssMB)
	}
	lat := b.samples["latency_ms"]
	fmt.Printf("  %d repetitions; latency is one repetition's set-up plus run\n", len(lat))
	return map[string]float64{
		"setup_s":        median(b.samples["setup_s"]),
		"run_s":          median(b.samples["run_s"]),
		"latency_p50_ms": median(lat),
		"latency_p99_ms": percentile(lat, 99),
		"throughput_rps": median(b.samples["throughput_rps"]),
		"peak_rss_mb":    median(b.samples["peak_rss_mb"]),
	}
}

// serveSetups is how many processes a serve run sets up; one of them also
// runs the traffic. serveReserve is the part of the run that is not phase
// A: the set-ups, phase B's serveBlocks blocks and the output checks.
// Phase A sends at least minPhaseA requests, so that at least ten samples
// lie beyond its p99 (the run takes longer than -seconds below about
// 40 s).
const (
	serveSetups  = 5
	serveBlocks  = 16
	serveReserve = 12.5
	minPhaseA    = 1100
)

// serve measures the daemon: one child runs both traffic phases, and more
// children set up only, so that set-up time is a median of several.
func (b *bench) serve() map[string]float64 {
	n := max(int(phaseARate*(b.seconds-serveReserve)), minPhaseA)
	nB := serveBlocks * blockSize
	cr, err := b.child("serve", "-seed", strconv.FormatInt(b.seed, 10), "-requests-a", strconv.Itoa(n),
		"-blocks-b", strconv.Itoa(serveBlocks))
	b.attempted += n + nB
	if err != nil {
		b.fail(n+nB, "serve: %v", err)
	} else {
		b.fail(cr.res.Failed, "serve: %s", strings.Join(cr.res.Errors, "; "))
		b.add("setup_s", cr.setupS)
	}
	for k := 1; k < serveSetups && b.ctx.Err() == nil; k++ {
		sr, err := b.child("serve", "-setup-only")
		b.attempted++
		if err != nil {
			b.fail(1, "set-up %d: %v", k, err)
			continue
		}
		b.add("setup_s", sr.setupS)
	}
	lat := cr.res.LatencyMs
	b.samples["latency_ms"] = lat
	b.samples["lag_ms"] = cr.res.LagMs
	b.samples["block_rps"] = cr.res.BlockRates
	p99 := percentile(lat, 99)
	tail := beyond(lat, p99)
	if err == nil && tail < 10 {
		b.fail(1, "phase A put %d samples beyond p99, want at least 10", tail)
	}
	fmt.Printf("  phase A: %d requests at %.0f/s, %d beyond p99, generator lag p99 %.2f ms max %.2f ms\n",
		len(lat), phaseARate, tail, percentile(cr.res.LagMs, 99), percentile(cr.res.LagMs, 100))
	fmt.Printf("  phase A p50 by kind: schedule %.1f ms, batch %.1f ms, cluster %.1f ms\n",
		cr.res.KindMs["schedule"], cr.res.KindMs["batch"], cr.res.KindMs["cluster"])
	fmt.Printf("  phase B: %d requests in %d blocks, %d clients, block rates %.0f-%.0f/s\n", nB, serveBlocks,
		runtime.GOMAXPROCS(0), percentile(cr.res.BlockRates, 0), percentile(cr.res.BlockRates, 100))
	return map[string]float64{
		"setup_s":        median(b.samples["setup_s"]),
		"run_s":          cr.res.RunS,
		"latency_p50_ms": median(lat),
		"latency_p99_ms": p99,
		"throughput_rps": cr.res.Throughput,
		"peak_rss_mb":    cr.rssMB,
	}
}

// traced measures pairs of children on the same inputs, one untraced and
// one traced, until the run's time is up (serve: one pair that fills it).
// The traced child's spans give the per-layer metrics, reported as
// medians over the pairs; both children of a pair must print the same
// output digest, and the difference of their times is the tracing
// overhead. The first pair of reproduce and sweep uses the seed whose
// digest is recorded.
func (b *bench) traced() map[string]float64 {
	var extra []string
	if b.workload == "serve" {
		n := int(phaseARate * max(b.seconds/2-serveReserve/2, 2))
		extra = []string{"-requests-a", strconv.Itoa(n), "-blocks-b", strconv.Itoa(serveBlocks / 2)}
	}
	spans := filepath.Join(filepath.Dir(b.work), "spans-"+b.workload+".jsonl")
	var last float64
	for k := 0; b.ctx.Err() == nil && (k == 0 || b.workload != "serve" && b.elapsed()+last <= b.seconds); k++ {
		t := time.Now()
		seed := repSeed(b.seed, k)
		if b.workload == "serve" {
			seed = b.seed
		}
		b.tracedPair(append([]string{"-seed", strconv.FormatInt(seed, 10)}, extra...), spans)
		last = time.Since(t).Seconds()
	}
	fmt.Printf("  %d traced pairs; spans of the last written to %s\n", len(b.samples["trace.overhead_s"]), spans)
	out := make(map[string]float64)
	for _, m := range perLayer {
		out[m.name] = median(b.samples[m.name])
	}
	return out
}

// tracedPair runs one untraced and one traced child and records the
// traced child's per-layer metrics as samples.
func (b *bench) tracedPair(args []string, spans string) {
	var runs [2]childRun
	for i, extra := range [][]string{nil, {"-trace", "-spans", spans}} {
		cr, err := b.child(b.workload, append(append([]string(nil), args...), extra...)...)
		b.attempted += max(cr.res.Ops, 1)
		if err != nil {
			b.fail(1, "%v", err)
			return
		}
		b.fail(cr.res.Failed, "%s", strings.Join(cr.res.Errors, "; "))
		runs[i] = cr
	}
	un, tr := runs[0], runs[1]
	if un.res.Digest != tr.res.Digest {
		b.fail(1, "traced output digest %s differs from the untraced %s", tr.res.Digest, un.res.Digest)
	}
	out := layerMetrics(tr.res.Layers)
	total := tr.setupS + tr.res.RunS
	out["trace.coverage"] = tr.res.Layers["trace.covered_s"] / total
	out["trace.overhead_s"] = total - (un.setupS + un.res.RunS)
	// The recorder's own allocations would inflate the traced process's
	// collector figures, so those come from the untraced one.
	out["go.gc_pause_s"], out["go.gc_cycles"] = un.res.GCPauseS, float64(un.res.GCCycles)
	for _, m := range perLayer {
		b.add(m.name, out[m.name])
	}
}

func saveRecord(buildDir string, rec record) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", rec.Workload, rec.Seed, rec.Trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// compareMain prints two saved results side by side. It refuses results
// measured on different machines, or of different workloads or modes.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <result.json> <result.json>")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	a, c := recs[0], recs[1]
	if err := comparable(a, c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	fmt.Printf("%-32s %14s %14s %8s\n", "metric", "A", "B", "B/A")
	for _, name := range sortedKeys(a.Result.Metrics) {
		va, vc := a.Result.Metrics[name].Value, c.Result.Metrics[name].Value
		ratio := "-"
		if va != 0 {
			ratio = fmt.Sprintf("%.3f", vc/va)
		}
		fmt.Printf("%-32s %14.6g %14.6g %8s %s\n", name, va, vc, ratio, a.Result.Metrics[name].Unit)
	}
	return 0
}

func comparable(a, c record) error {
	switch {
	case a.Machine != c.Machine:
		return fmt.Errorf("results come from different machines (%+v vs %+v); compare only same-machine runs", a.Machine, c.Machine)
	case a.Workload != c.Workload || a.Trace != c.Trace:
		return errors.New("results are of different workloads or modes")
	}
	return nil
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
