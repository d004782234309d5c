package main

import (
	"math"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/stats"
)

type fixedPredictor struct{}

func (fixedPredictor) PredictSizeKB(stats.Features) (int, error) { return 4, nil }

type votingFixed struct{ fixedPredictor }

func (votingFixed) MemberVotes(stats.Features) (map[int]int, error) { return map[int]int{4: 3}, nil }

type forkingFixed struct{ fixedPredictor }

func (forkingFixed) Fork() core.Predictor { return forkingFixed{} }

// TestWrapPredictorKeepsCapabilities checks that the timing wrapper
// exposes exactly the optional interfaces of what it wraps, and refuses
// what it cannot forward.
func TestWrapPredictorKeepsCapabilities(t *testing.T) {
	p, tp, err := wrapPredictor(fixedPredictor{}, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(core.VotePredictor); ok {
		t.Error("wrapper invents MemberVotes")
	}
	if kb, err := p.PredictSizeKB(stats.Features{}); kb != 4 || err != nil {
		t.Errorf("PredictSizeKB = %d, %v", kb, err)
	}
	if tp.calls.Load() != 1 {
		t.Errorf("calls = %d, want 1", tp.calls.Load())
	}
	if calls, secs := tp.annStats(); calls != 0 || secs != 0 {
		t.Errorf("annStats = %d, %v for a predictor that is not the ANN", calls, secs)
	}

	p, _, err = wrapPredictor(votingFixed{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vp, ok := p.(core.VotePredictor)
	if !ok {
		t.Fatal("wrapper drops MemberVotes")
	}
	if v, err := vp.MemberVotes(stats.Features{}); err != nil || v[4] != 3 {
		t.Errorf("MemberVotes = %v, %v", v, err)
	}

	if _, _, err := wrapPredictor(forkingFixed{}, nil); err == nil {
		t.Error("wrapping a ForkingPredictor must fail")
	}
}

// TestSelfTimes checks self time against overlapping and nested children.
func TestSelfTimes(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 1, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Start: 30 * ms, End: 50 * ms}, // overlaps span 2
		{ID: 4, Parent: 3, Start: 35 * ms, End: 45 * ms},
		{ID: 5, Parent: 1, Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	want := []float64{0.05, 0.03, 0.01, 0.01, 0.03}
	for i, got := range selfTimes(spans) {
		if math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("span %d self = %v, want %v", i+1, got, want[i])
		}
	}
}
