package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"hetsched/internal/ann"
	"hetsched/internal/core"
	"hetsched/internal/stats"
)

// timedPredictor counts and times every prediction the scheduler asks of
// the wrapped predictor and, when that is the ANN, records each as an
// "ann" span. It passes features and results through untouched, so it
// changes no scheduling decision.
type timedPredictor struct {
	inner core.Predictor
	isANN bool
	rec   *recorder // nil unless isANN
	// parent and trace attach the spans to the benchmark span open around
	// the calls (one system's run, or a whole sweep.Run); they stay 0 in
	// the daemon, whose workers serve many requests at once, so that a
	// call cannot be tied to its request.
	parent, trace atomic.Int64
	calls, nanos  atomic.Int64
}

// PredictSizeKB implements core.Predictor.
func (p *timedPredictor) PredictSizeKB(f stats.Features) (int, error) {
	start := time.Now()
	kb, err := p.inner.PredictSizeKB(f)
	end := time.Now()
	p.calls.Add(1)
	p.nanos.Add(end.Sub(start).Nanoseconds())
	p.rec.record(int(p.parent.Load()), int(p.trace.Load()), "ann", "PredictSizeKB", start, end)
	return kb, err
}

// annStats returns the calls that reached the ANN and their total time in
// seconds: zero when the wrapped predictor is of another kind.
func (p *timedPredictor) annStats() (int64, float64) {
	if p == nil || !p.isANN {
		return 0, 0
	}
	return p.calls.Load(), float64(p.nanos.Load()) / 1e9
}

// timedVotePredictor forwards core.VotePredictor, which the simulator's
// decision tracer looks for on the ANN bag.
type timedVotePredictor struct {
	*timedPredictor
	votes core.VotePredictor
}

func (p timedVotePredictor) MemberVotes(f stats.Features) (map[int]int, error) {
	return p.votes.MemberVotes(f)
}

// wrapPredictor returns pred behind a timedPredictor with the same set of
// optional capabilities the simulator detects by type assertion. It
// refuses predictors with capabilities it does not forward (online
// learners), because dropping one would silently change their schedules.
func wrapPredictor(pred core.Predictor, rec *recorder) (core.Predictor, *timedPredictor, error) {
	switch pred.(type) {
	case core.VotingPredictor, core.FeedbackPredictor, core.RegretObserver,
		core.ForkingPredictor, core.PredictorReporter:
		return nil, nil, fmt.Errorf("perfbench: predictor %T has a capability the timing wrapper does not forward", pred)
	}
	t := &timedPredictor{inner: pred}
	if _, ok := pred.(*ann.SizePredictor); ok {
		t.isANN, t.rec = true, rec
	}
	if vp, ok := pred.(core.VotePredictor); ok {
		return timedVotePredictor{t, vp}, t, nil
	}
	return t, t, nil
}
