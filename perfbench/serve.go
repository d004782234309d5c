package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"time"

	"hetsched"
	"hetsched/internal/characterize"
	"hetsched/internal/server"
)

// The serve traffic mix. Schedule requests are the bulk; batch requests
// mostly repeat one hot variant (a memory-tier hit) and now and then add a
// variant drawn from a space far larger than the daemon's 256-entry
// characterization LRU (a computed miss). Cluster requests take about
// three times as long as schedule requests; at a 2% share the slowest 1%
// of phase A is made of them, so p99 tracks a cluster request's typical
// latency rather than a few stalls.
const (
	shareCluster      = 0.02
	shareBatch        = 0.30
	shareNewVariant   = 0.15 // of batch requests
	scheduleArrivals  = 250
	clusterArrivals   = 1000
	clusterNodes      = "2*quad;1*4x8"
	batchJobs         = 32
	hotKernel         = "a2time"
	rerunScheduleEach = 50 // re-run every 50th schedule request in-process
	rerunClusterEach  = 12
)

// Phase A is an open loop at one fixed rate. Phase B measures a capacity
// of about 240 requests/s on a 2-CPU host whose speed drifts by up to 2x
// over minutes; 40/s stays under a third of capacity even in a slow spell.
// senders bounds its connections well above what that rate keeps in
// flight.
//
// The two phases alternate in serveRounds rounds, so that phase B samples
// the host at several points of the run rather than in one window of a
// few seconds. Phase B is made of blocks of blockSize requests, each
// block with every kind at its exact share; throughput is the median of
// the blocks' completion rates, so one stall moves one block only.
const (
	phaseARate    = 40.0
	phaseASenders = 32
	serveRounds   = 4
	blockSize     = 100
)

// blocks generates n blocks of blockSize requests, each made by traffic
// from its own seed drawn from seed.
func blocks(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	for range n {
		reqs = append(reqs, traffic(rng.Int63(), blockSize)...)
	}
	return reqs
}

// blockRates splits a closed loop's samples, in order of completion, into
// blocks of size answers and returns each full block's answers per
// second, timed from the previous block's last answer (the first block
// from the start of the loop).
func blockRates(samples []sample, size int) []float64 {
	done := make([]time.Duration, len(samples))
	for i, s := range samples {
		done[i] = s.Done
	}
	slices.Sort(done)
	var rates []float64
	var prev time.Duration
	for k := size; k <= len(done); k += size {
		rates = append(rates, float64(size)/(done[k-1]-prev).Seconds())
		prev = done[k-1]
	}
	return rates
}

// traffic generates n requests of the mix from seed. Each kind's count is
// its exact share of n, in a seeded order, so that every run has as many
// cluster requests in its tail and as many new batch variants.
func traffic(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	kernels := hetsched.Kernels()
	nCluster := int(math.Round(shareCluster * float64(n)))
	nBatch := int(math.Round(shareBatch * float64(n)))
	nNew := int(math.Round(shareNewVariant * float64(nBatch)))
	kinds := make([]int, n) // 0 schedule, 1 batch, 2 batch with a new variant, 3 cluster
	for i := range kinds {
		switch {
		case i < nCluster:
			kinds[i] = 3
		case i < nCluster+nNew:
			kinds[i] = 2
		case i < nCluster+nBatch:
			kinds[i] = 1
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	reqs := make([]request, n)
	for i, kind := range kinds {
		var body any
		switch kind {
		case 3:
			reqs[i].Kind, reqs[i].Path = "cluster", "/v1/cluster/schedule"
			body = server.ClusterScheduleRequest{Nodes: clusterNodes, System: "proposed", Scorer: "hybrid",
				Arrivals: clusterArrivals, Utilization: 0.9, Seed: 1 + rng.Int63n(1<<30)}
		case 1, 2:
			reqs[i].Kind, reqs[i].Path = "batch", "/v1/schedule/batch"
			jobs := make([]server.BatchJob, batchJobs)
			for j := range jobs {
				jobs[j].Kernel = hotKernel
			}
			if kind == 2 {
				jobs[batchJobs-1] = server.BatchJob{Kernel: kernels[rng.Intn(len(kernels))].Name, DataSeed: 1 + rng.Int63n(1<<40)}
			}
			body = server.BatchScheduleRequest{System: "proposed", Utilization: 0.9, Jobs: jobs}
		default:
			reqs[i].Kind, reqs[i].Path = "schedule", "/v1/schedule"
			body = server.ScheduleRequest{System: "proposed", Arrivals: scheduleArrivals, Utilization: 0.9,
				Seed: 1 + rng.Int63n(1<<30)}
		}
		reqs[i].Body, _ = json.Marshal(body) // plain structs: cannot fail
	}
	return reqs
}

// runServe is one fresh-process daemon: New with the default ANN,
// server.New on a loopback listener with daemon defaults except Workers,
// then phase A (open loop) and phase B (closed loop with nproc clients).
func runServe(o childOpts, rec *recorder) (childResult, error) {
	var res childResult
	ctx := context.Background()
	replays := characterize.ReplayCount()
	setupID := rec.begin(0, 0, "", "setup")
	sys, err := newSystem("ann", o, rec, setupID, 0)
	if err != nil {
		return res, err
	}
	var tp *timedPredictor
	if rec != nil {
		if sys.Pred, tp, err = wrapPredictor(sys.Pred, rec); err != nil {
			return res, err
		}
	}
	id := rec.begin(setupID, 0, "server", "server.New")
	srv, err := server.New(sys, server.Config{Workers: workers(), CacheDir: o.cacheDir})
	if err != nil {
		return res, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	if err := waitHealthy(base); err != nil {
		return res, err
	}
	rec.end(id)
	rec.end(setupID)
	ready()

	if !o.setupOnly {
		err = serveTraffic(ctx, o, rec, tp, sys, base, replays, &res)
	}
	shutCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if serr := hs.Shutdown(shutCtx); serr != nil && err == nil {
		err = serr
	}
	if serr := srv.Shutdown(shutCtx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return res, err
}

// waitHealthy polls /healthz until the daemon answers 200.
func waitHealthy(base string) error {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy within a minute")
}

// serveTraffic runs both phases, checks every response and re-runs a fixed
// sample in-process.
func serveTraffic(ctx context.Context, o childOpts, rec *recorder, tp *timedPredictor, sys *hetsched.System,
	base string, replays uint64, res *childResult) error {
	nA := o.requestsA
	reqs := append(traffic(o.seed, nA), blocks(o.seed+1, o.blocksB)...)
	// The in-process re-runs use a fixed sample of phase A, chosen from the
	// traffic alone, so that phase B's size does not change which
	// requests are checked.
	rerun := make([]bool, nA)
	nSchedule, nCluster := 0, 0
	for i, r := range reqs[:nA] {
		switch r.Kind {
		case "schedule":
			nSchedule++
			rerun[i] = nSchedule%rerunScheduleEach == 1
		case "cluster":
			nCluster++
			rerun[i] = nCluster%rerunClusterEach == 1
		}
	}
	// Every answer is checked as it arrives; only its digest is kept, and
	// its body if it is re-run. Holding every body would grow the process's
	// heap over the run, and the collector would run less and less often,
	// so that the daemon would speed up with the benchmark's own memory.
	samples := make([]sample, len(reqs))
	starts := make([]time.Time, len(reqs)) // start of the loop each sample's times count from
	sums := make([][sha256.Size]byte, len(reqs))
	errs := make([]error, len(reqs))
	check := func(off int) func(int, *sample) {
		return func(i int, s *sample) {
			i += off
			part, err := checkResponse(reqs[i], *s)
			if errs[i] = err; err == nil {
				sums[i] = sha256.Sum256(part)
			}
			if i >= nA || !rerun[i] {
				s.Body = nil
			}
		}
	}
	var rates []float64
	var wallB time.Duration
	for r := range serveRounds {
		lo, hi := r*nA/serveRounds, (r+1)*nA/serveRounds
		start := time.Now()
		copy(samples[lo:hi], openLoop(ctx, base, reqs[lo:hi], phaseARate, phaseASenders, check(lo)))
		for i := lo; i < hi; i++ {
			starts[i] = start
		}
		lo, hi = nA+r*o.blocksB/serveRounds*blockSize, nA+(r+1)*o.blocksB/serveRounds*blockSize
		start = time.Now()
		out, wall := closedLoop(ctx, base, reqs[lo:hi], workers(), check(lo))
		copy(samples[lo:hi], out)
		for i := lo; i < hi; i++ {
			starts[i] = start
		}
		rates = append(rates, blockRates(out, blockSize)...)
		wallB += wall
	}
	if rec != nil {
		// One span per request, from send to answer; a request's in-process
		// re-run below shares its trace ID.
		for i, s := range samples {
			rec.record(0, i+1, "server", reqs[i].Path, starts[i].Add(s.Sent), starts[i].Add(s.Done))
		}
	}
	res.RunS = wallB.Seconds()
	res.Throughput = median(rates)
	res.BlockRates = rates
	res.Ops = len(reqs)
	byKind := make(map[string][]float64)
	for i, s := range samples[:nA] {
		res.LatencyMs = append(res.LatencyMs, s.LatencyMs())
		res.LagMs = append(res.LagMs, s.LagMs())
		byKind[reqs[i].Kind] = append(byKind[reqs[i].Kind], s.LatencyMs())
	}
	res.KindMs = make(map[string]float64)
	for k, v := range byKind {
		res.KindMs[k] = median(v)
	}
	var snap server.Snapshot
	if err := getJSON(base+"/metrics", &snap); err != nil {
		return err
	}
	kernels := characterize.ReplayCount() - replays
	calls, inferS := tp.annStats()

	var checked []byte
	var clusterS []float64
	for i, s := range samples {
		if errs[i] != nil {
			res.fail("request %d (%s): %v", i, reqs[i].Kind, errs[i])
			continue
		}
		checked = append(checked, sums[i][:]...)
		if i >= nA || !rerun[i] {
			continue
		}
		switch reqs[i].Kind {
		case "schedule":
			if err := rerunSchedule(sys, rec, i+1, reqs[i], s.Body); err != nil {
				res.fail("request %d re-run: %v", i, err)
			}
		case "cluster":
			d, err := rerunCluster(sys, rec, i+1, reqs[i], s.Body)
			if err != nil {
				res.fail("request %d re-run: %v", i, err)
			}
			clusterS = append(clusterS, d)
		}
	}
	res.Digest = digest(checked)
	if rec == nil {
		return nil
	}
	ep := snap.Endpoints
	ts := snap.Characterization
	hitRatio := 0.0
	if ts != nil && ts.Requests > 0 {
		hitRatio = float64(ts.Mem.Hits+ts.Mem.Coalesced) / float64(ts.Requests)
	}
	res.Layers = map[string]float64{
		"characterize.kernels_run":       float64(kernels),
		"characterize.tier_hit_ratio":    hitRatio,
		"ann.infer_calls":                float64(calls),
		"ann.infer_s":                    inferS,
		"cluster.dispatch_s":             median(clusterS),
		"cluster.steals":                 float64(snap.ClusterSteals),
		"server.queue_wait_p95_ms":       max(ep["schedule"].QueueWaitP95, ep["batch"].QueueWaitP95, ep["cluster"].QueueWaitP95),
		"server.service_p95_ms.schedule": ep["schedule"].P95Ms,
		"server.service_p95_ms.batch":    ep["batch"].P95Ms,
		"server.service_p95_ms.cluster":  ep["cluster"].P95Ms,
		"server.rejected":                float64(snap.JobsRejected + snap.JobsShed),
	}
	if ts != nil {
		res.Layers["characterize.tier_computed"] = float64(ts.Computed)
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkResponse checks one response and returns the part of it the
// output digest covers: everything but the batch characterization block,
// whose memory/coalesced split depends on request timing.
func checkResponse(req request, s sample) ([]byte, error) {
	if s.Err != nil {
		return nil, s.Err
	}
	if s.Status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", s.Status, s.Body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(s.Body, &e); err != nil {
		return nil, err
	}
	if e.Error != "" {
		return nil, fmt.Errorf("error field: %s", e.Error)
	}
	switch req.Kind {
	case "schedule":
		var r server.ScheduleResponse
		if err := json.Unmarshal(s.Body, &r); err != nil {
			return nil, err
		}
		if r.Jobs != scheduleArrivals || r.Completed != r.Jobs {
			return nil, fmt.Errorf("completed %d of %d jobs, sent %d", r.Completed, r.Jobs, scheduleArrivals)
		}
	case "cluster":
		var r server.ClusterScheduleResponse
		if err := json.Unmarshal(s.Body, &r); err != nil {
			return nil, err
		}
		if r.Jobs != clusterArrivals || r.Completed != r.Jobs {
			return nil, fmt.Errorf("completed %d of %d jobs, sent %d", r.Completed, r.Jobs, clusterArrivals)
		}
	case "batch":
		var r server.BatchScheduleResponse
		if err := json.Unmarshal(s.Body, &r); err != nil {
			return nil, err
		}
		if r.Jobs != batchJobs || r.Scheduled != batchJobs || r.Completed != batchJobs || r.Rejected != 0 {
			return nil, fmt.Errorf("scheduled %d, completed %d, rejected %d of %d jobs",
				r.Scheduled, r.Completed, r.Rejected, batchJobs)
		}
		for _, jr := range r.Results {
			if jr.Error != "" {
				return nil, fmt.Errorf("job %d: %s", jr.Index, jr.Error)
			}
		}
		r.Characterization = server.BatchCharacterizationWire{}
		return json.Marshal(r)
	}
	return s.Body, nil
}

// rerunSchedule repeats a /v1/schedule request through hetsched.RunSystem
// and compares the outcome with the daemon's answer.
func rerunSchedule(sys *hetsched.System, rec *recorder, trace int, req request, body []byte) error {
	var in server.ScheduleRequest
	var got server.ScheduleResponse
	if err := json.Unmarshal(req.Body, &in); err != nil {
		return err
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	jobs, err := sys.Workload(in.Arrivals, in.Utilization, in.Seed)
	if err != nil {
		return err
	}
	id := rec.begin(0, trace, "core", "sim."+in.System)
	m, err := sys.RunSystem(in.System, jobs, hetsched.SimConfig{})
	rec.end(id)
	if err != nil {
		return err
	}
	if got.Completed != m.Completed || got.MakespanCycles != m.Makespan ||
		got.TurnaroundCycles != m.TurnaroundCycles || got.TotalEnergyNJ != m.TotalEnergy() {
		return fmt.Errorf("daemon answered completed=%d makespan=%d turnaround=%d energy=%v, in-process run gives %d/%d/%d/%v",
			got.Completed, got.MakespanCycles, got.TurnaroundCycles, got.TotalEnergyNJ,
			m.Completed, m.Makespan, m.TurnaroundCycles, m.TotalEnergy())
	}
	return nil
}

// rerunCluster repeats a /v1/cluster/schedule request through
// hetsched.RunCluster, compares the outcome with the daemon's answer and
// returns how long the in-process run took.
func rerunCluster(sys *hetsched.System, rec *recorder, trace int, req request, body []byte) (float64, error) {
	var in server.ClusterScheduleRequest
	var got server.ClusterScheduleResponse
	if err := json.Unmarshal(req.Body, &in); err != nil {
		return 0, err
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return 0, err
	}
	nodes, err := hetsched.ParseClusterSpec(in.Nodes)
	if err != nil {
		return 0, err
	}
	scorer, err := hetsched.ParseScorer(in.Scorer)
	if err != nil {
		return 0, err
	}
	jobs, err := sys.ClusterWorkload(nodes, nil, in.Arrivals, in.Utilization, in.Seed)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	id := rec.begin(0, trace, "cluster", "RunCluster")
	r, err := sys.RunCluster(hetsched.ClusterConfig{Nodes: nodes, System: in.System, Scorer: scorer}, jobs)
	rec.end(id)
	d := time.Since(start).Seconds()
	if err != nil {
		return d, err
	}
	if got.Completed != r.Completed || got.Steals != r.Steals || got.MakespanCycles != r.Makespan ||
		got.TotalEnergyNJ != r.TotalEnergyNJ() {
		return d, fmt.Errorf("daemon answered completed=%d steals=%d makespan=%d energy=%v, in-process run gives %d/%d/%d/%v",
			got.Completed, got.Steals, got.MakespanCycles, got.TotalEnergyNJ,
			r.Completed, r.Steals, r.Makespan, r.TotalEnergyNJ())
	}
	return d, nil
}
