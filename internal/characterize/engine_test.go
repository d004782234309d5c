package characterize

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hetsched/internal/cache"
	"hetsched/internal/eembc"
	"hetsched/internal/energy"
	"hetsched/internal/stats"
	"hetsched/internal/vm"
)

// replayDB is the ground-truth oracle the streaming engine is checked
// against: every variant's full trace is recorded once, then replayed
// through a fresh single-configuration cache per Table 1 configuration
// (18 traversals per variant, fanned across goroutines). It shares only
// resultL1/resultL2 with the production path, so bit-identity of the DBs
// proves the fused multi-configuration simulation counts exactly.
func replayDB(variants []Variant, em *energy.Model, opts Options) (*DB, error) {
	db := &DB{Records: make([]Record, len(variants))}
	for i, v := range variants {
		rec, err := replayOne(v, em, opts)
		if err != nil {
			return nil, err
		}
		rec.ID = i
		db.Records[i] = rec
	}
	return db, nil
}

// replayOne characterizes one variant by per-configuration trace replay.
func replayOne(v Variant, em *energy.Model, opts Options) (Record, error) {
	k, err := eembc.ByName(v.Kernel)
	if err != nil {
		return Record{}, err
	}
	ctr, tr, err := eembc.Record(k, v.Params)
	if err != nil {
		return Record{}, err
	}
	space := cache.DesignSpace()
	rec := Record{
		Kernel:     v.Kernel,
		Params:     v.Params,
		BaseCycles: ctr.Cycles,
		Accesses:   uint64(tr.Len()),
		Configs:    make([]ConfigResult, len(space)),
	}
	errs := make([]error, len(space))
	var wg sync.WaitGroup
	for j, cfg := range space {
		wg.Add(1)
		go func(j int, cfg cache.Config) {
			defer wg.Done()
			if opts.L2 != nil {
				rec.Configs[j], errs[j] = replayL2(tr, cfg, ctr.Cycles, opts.L2)
			} else {
				rec.Configs[j], errs[j] = replayL1(tr, cfg, ctr.Cycles, em)
			}
		}(j, cfg)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return Record{}, err
	}
	baseHits, baseMisses := baseCounts(rec.Configs)
	rec.Features = stats.FromExecution(ctr, tr, baseHits, baseMisses)
	return rec, nil
}

// replayL1 is the oracle's paper mode: every L1 miss pays the off-chip
// penalty.
func replayL1(tr *vm.Trace, cfg cache.Config, baseCycles uint64, em *energy.Model) (ConfigResult, error) {
	l1, err := cache.NewL1(cfg)
	if err != nil {
		return ConfigResult{}, err
	}
	for _, a := range tr.Accesses {
		l1.Access(a.Addr, a.Write)
	}
	s := l1.Stats()
	return resultL1(cfg, s.Hits, s.Misses, baseCycles, em), nil
}

// replayL2 is the oracle's extension mode: the trace runs through the
// two-level hierarchy and misses split into L2 hits and true off-chip
// accesses.
func replayL2(tr *vm.Trace, cfg cache.Config, baseCycles uint64, em *energy.L2Model) (ConfigResult, error) {
	h, err := cache.NewHierarchyL2(cfg, em.L2Params().Config)
	if err != nil {
		return ConfigResult{}, err
	}
	var l1Hits, l2Hits, offChip uint64
	for _, a := range tr.Accesses {
		switch r := h.Access(a.Addr, a.Write); {
		case r.L1Hit:
			l1Hits++
		case r.L2Hit:
			l2Hits++
		default:
			offChip++
		}
	}
	return resultL2(cfg, l1Hits, l2Hits, offChip, baseCycles, em), nil
}

// diffDBs pinpoints the first divergence between two DBs so an equivalence
// failure names the kernel/config/field instead of dumping two databases.
func diffDBs(t *testing.T, stream, replay *DB) {
	t.Helper()
	if len(stream.Records) != len(replay.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(stream.Records), len(replay.Records))
	}
	for i := range stream.Records {
		a, b := &stream.Records[i], &replay.Records[i]
		if a.Kernel != b.Kernel || a.Params != b.Params || a.ID != b.ID {
			t.Errorf("record %d identity differs: %s/%+v vs %s/%+v", i, a.Kernel, a.Params, b.Kernel, b.Params)
			continue
		}
		if a.BaseCycles != b.BaseCycles || a.Accesses != b.Accesses {
			t.Errorf("%s: base cycles/accesses differ: %d/%d vs %d/%d",
				a.Kernel, a.BaseCycles, a.Accesses, b.BaseCycles, b.Accesses)
		}
		if a.Features != b.Features {
			t.Errorf("%s: features differ:\n stream %v\n replay %v", a.Kernel, a.Features, b.Features)
		}
		for j := range a.Configs {
			ca, cb := a.Configs[j], b.Configs[j]
			if ca != cb {
				t.Errorf("%s %s: stream %+v\n              replay %+v", a.Kernel, ca.Config, ca, cb)
			}
		}
	}
}

// checkAgainstOracle characterizes variants on the streaming engine and the
// replay oracle and fails on any divergence.
func checkAgainstOracle(t *testing.T, variants []Variant, em *energy.Model, opts Options) {
	t.Helper()
	stream, err := CharacterizeWithOptions(variants, em, opts)
	if err != nil {
		t.Fatalf("stream on %+v: %v", variants, err)
	}
	replay, err := replayDB(variants, em, opts)
	if err != nil {
		t.Fatalf("replay oracle on %+v: %v", variants, err)
	}
	if !reflect.DeepEqual(stream, replay) {
		diffDBs(t, stream, replay)
		t.Fatalf("streaming engine diverges from the replay oracle on %d variants (see per-field diffs above)", len(variants))
	}
}

// TestEnginesBitIdentical is the golden equivalence gate: the streaming
// engine must produce a DB bit-identical (hits, misses, cycles, features,
// every energy float) to the per-configuration replay oracle across every
// EEMBC kernel and all 18 configurations.
func TestEnginesBitIdentical(t *testing.T) {
	variants := ExtendedVariants() // all 20 kernels: automotive + telecom
	if testing.Short() {
		variants = variants[:4]
	}
	checkAgainstOracle(t, variants, energy.NewDefault(), Options{})
}

// TestEnginesBitIdenticalL2 repeats the gate under the two-level hierarchy
// mode, where the multi-configuration simulator must reproduce each
// configuration's private L2 stream (writeback ordering included).
func TestEnginesBitIdenticalL2(t *testing.T) {
	em := energy.NewDefault()
	l2, err := energy.NewL2(em, energy.DefaultL2Params())
	if err != nil {
		t.Fatal(err)
	}
	variants := CanonicalVariants() // the 16 automotive kernels
	if testing.Short() {
		variants = variants[:3]
	}
	checkAgainstOracle(t, variants, em, Options{L2: l2})
}

// randomVariants draws n kernel variants with seed-derived random scales,
// iteration counts, data seeds and kernel choices — workloads no golden test
// pinned, exercising footprints and access patterns the canonical suites
// never hit.
func randomVariants(seed int64, n int) []Variant {
	rng := rand.New(rand.NewSource(seed))
	kernels := eembc.AllKernels()
	out := make([]Variant, n)
	for i := range out {
		out[i] = Variant{
			Kernel: kernels[rng.Intn(len(kernels))].Name,
			Params: eembc.Params{
				Scale:      1 + rng.Intn(4),
				Iterations: 1 + rng.Intn(6),
				Seed:       rng.Int63n(1 << 32),
			},
		}
	}
	return out
}

// TestEnginesEquivalentRandom is the property-based equivalence gate: for a
// table of seeds, randomly drawn kernel variants must characterize
// bit-identically on the streaming engine and the replay oracle. The fixed
// golden tests above pin the canonical suites; this one probes the space
// between them (and runs under -race via make test-race).
func TestEnginesEquivalentRandom(t *testing.T) {
	em := energy.NewDefault()
	seeds := []int64{2, 17, 404, 9001, 271828}
	perSeed := 3
	if testing.Short() {
		seeds = seeds[:2]
		perSeed = 2
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkAgainstOracle(t, randomVariants(seed, perSeed), em, Options{})
		})
	}
}

// TestOnePassReplayCount asserts the observable single pass: streaming
// characterization performs exactly one kernel traversal per variant,
// however many configurations it scores.
func TestOnePassReplayCount(t *testing.T) {
	em := energy.NewDefault()
	variants := CanonicalVariants()[:2]
	before := ReplayCount()
	if _, err := CharacterizeWithOptions(variants, em, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ReplayCount() - before; got != uint64(len(variants)) {
		t.Errorf("stream traversals = %d, want %d (one per variant)", got, len(variants))
	}
}
