// Package core implements the Active Harmony tuning engine: the
// Adaptation Controller that drives a search strategy against an
// application objective.
//
// The package provides the "off-line" iterative tuning mode this
// paper added to Active Harmony: every tuning iteration is one
// representative short run (a benchmarking run) of the application,
// and configuration changes happen between runs. The same engine,
// placed behind the TCP protocol in internal/server, provides the
// pre-existing "on-line" mode where a running application fetches new
// parameter values mid-execution.
package core

import (
	"context"
	"errors"
	"math"

	"harmony/internal/space"
)

// Objective measures the performance of one configuration: typically
// the execution time, in seconds, of one representative short run.
// Lower is better. An error marks the configuration as failed; the
// tuner records it and treats its value as +Inf so the search moves
// away from it.
type Objective func(ctx context.Context, cfg space.Config) (float64, error)

// Options configure a tuning session.
type Options struct {
	// MaxRuns bounds the number of actual application runs (distinct
	// configurations evaluated). Cached re-evaluations are free.
	// 0 means no bound; the strategy's own termination applies.
	MaxRuns int
	// MaxProposals bounds the total number of strategy proposals,
	// including ones answered from the evaluation cache. It guards
	// against strategies that never converge. 0 means 10×MaxRuns when
	// MaxRuns is set, otherwise 10000.
	MaxProposals int
	// StopBelow, if non-zero, stops the session as soon as an
	// evaluation returns a value <= StopBelow.
	StopBelow float64
	// RunOverhead is the fixed cost, in seconds, charged to the
	// tuning-time account for every application run on top of the
	// measured objective: job launch, warm-up, teardown. The paper
	// notes that "our experiments take all costs of parameter changes
	// (including applications needed to be re-run and their warm up
	// time) into consideration". Failed runs are charged the overhead
	// too: a configuration that crashes still paid its launch and
	// teardown.
	RunOverhead float64
	// Cache, if non-nil, answers objective evaluations from prior
	// sessions before the objective is invoked. A hit is charged to
	// Runs and TuningCost exactly as if the application had run — the
	// paper's cost model counts the run whether or not this process
	// re-measured it — so Runs, Best, and the trial log are identical
	// for every cache state and worker count; only wall-clock time and
	// the CacheHits/CacheMisses counters change. Failed evaluations
	// are never cached: a configuration that crashed is re-attempted
	// by every session that proposes it.
	Cache PointCache
	// Surrogate, if non-nil with a Model, turns on model-guided
	// evaluation pruning: proposals are scored analytically and only
	// those the model ranks best are simulated — the keep fraction of
	// each round in barrier mode, each candidate against the best
	// configuration committed so far in Async mode. Pruned proposals
	// are answered to the search strategy at their predicted value
	// and recorded as Trial.Pruned, but are never charged to Runs or
	// TuningCost, never stored in any cache, and never eligible for
	// Best, FirstValue, or StopBelow: the surrogate chooses what to
	// evaluate, never what to report. Pruning decisions depend on the
	// proposals alone, so they are identical for every worker count.
	Surrogate *SurrogateOptions
	// Workers is the number of objective evaluations the engine may
	// have in flight at once; 0 means 1, the paper's sequential loop.
	// With more, every independent round of a BatchStrategy (PRO,
	// random, systematic, exhaustive) is evaluated concurrently and
	// workers a round leaves idle prefetch the follow-up candidates
	// of a speculating simplex. Result accounting (Runs, Trials,
	// TuningCost, BestAtRun) is identical regardless of worker count.
	Workers int
	// Async selects the engine's pipelined mode. Off (barrier mode),
	// the engine issues one round of the strategy, commits it, and
	// only then asks for the next. On, it keeps up to AsyncDepth
	// candidates in flight across round boundaries and commits
	// results to the strategy in issue order, so one slow evaluation
	// no longer holds up the rest. Both modes produce the same trial
	// log for a strategy driven through its rounds; only native
	// issue/commit strategies (the ensemble) and surrogate pruning
	// behave differently in Async mode. See Tune.
	Async bool
	// AsyncDepth is the pipeline capacity in Async mode: how many
	// issued-but-uncommitted candidates the engine may hold. 0
	// selects DefaultAsyncDepth; barrier mode ignores it. The depth
	// is deliberately independent of Workers (set it at least as
	// large to keep every worker busy): the issue/commit trace is a
	// pure function of depth and the strategy, so changing only
	// Workers can never change the result.
	AsyncDepth int
	// Logf, if non-nil, receives one line per evaluation.
	Logf func(format string, args ...any)
}

// PointCache is a cross-session evaluation cache consulted by the
// tuning engine. Implementations must be safe for concurrent use
// (the engine looks points up from its coordinating goroutine but
// servers may share one cache across sessions) and must
// only answer for the exact (application, machine, space) identity
// they were bound to — see history.EvalCache.
type PointCache interface {
	// Lookup returns the cached objective value for the point.
	Lookup(pt space.Point) (float64, bool)
	// Store records a successful evaluation of the point.
	Store(pt space.Point, value float64)
}

// Trial records one strategy proposal and its outcome.
type Trial struct {
	// Proposal is the 1-based proposal sequence number.
	Proposal int
	// Run is the 1-based application-run number, or 0 if the value
	// came from the evaluation cache.
	Run    int
	Point  space.Point
	Config space.Config
	Value  float64
	Cached bool
	// Pruned marks a proposal the surrogate model skipped: Value is
	// the model's prediction, not a measurement, and the proposal was
	// charged to no account. Pruned trials exist so the trial log
	// explains the search trajectory; reported results never include
	// them.
	Pruned bool
	Err    error
}

// Result summarises a completed tuning session.
type Result struct {
	Strategy   string
	Best       space.Point
	BestConfig space.Config
	BestValue  float64
	FirstValue float64 // objective of the first evaluated configuration
	Runs       int     // actual application runs
	Proposals  int     // strategy proposals (incl. cache hits)
	Failures   int     // runs whose objective returned an error
	TuningCost float64 // total seconds spent running the application
	Converged  bool    // the strategy stopped on its own
	Trials     []Trial
	BestAtRun  int // run number that produced the incumbent best
	// SpeculativeRuns counts objective evaluations the engine
	// launched ahead of need — simplex expansion/contraction
	// prefetches and candidates left past a StopBelow cut. They
	// consume wall-clock on spare workers but are not charged to
	// Runs or TuningCost unless the strategy actually proposes them
	// (see SpeculativeHits); with one worker the engine never
	// speculates.
	SpeculativeRuns int
	// SpeculativeHits counts speculative evaluations whose point the
	// strategy later proposed for real. Each hit is charged to Runs
	// and TuningCost exactly as if it had been evaluated on demand,
	// so accounting matches a session without speculation; the
	// wall-clock win
	// is that the result was already in hand.
	SpeculativeHits int
	// CacheHits counts runs answered by Options.Cache; CacheMisses
	// counts runs that consulted it and invoked the objective. Both
	// are diagnostics only: cache hits are charged to Runs and
	// TuningCost like real runs, so no other Result field depends on
	// the cache state.
	CacheHits   int
	CacheMisses int
	// SurrogateKept counts proposals the surrogate model scored and
	// committed to simulation; SurrogatePruned counts proposals it
	// skipped. SurrogateFallbacks counts rounds (barrier mode) or
	// candidates (Async mode) simulated without pruning because the
	// model declined a point or predicted a degenerate score. All
	// three are zero without Options.Surrogate.
	SurrogateKept      int
	SurrogatePruned    int
	SurrogateFallbacks int
	// WorkerOccupancy is the measured fraction of available
	// worker-seconds the session spent inside the objective:
	// busy-time / (Workers × session wall clock). It is a wall-clock
	// diagnostic — the only Result field that is not deterministic —
	// and it is what makes the "parallel but starved" failure mode
	// (throughput dropping as workers rise) observable directly.
	WorkerOccupancy float64
	// QueueStarved counts starved refill passes. A refill pass is the
	// engine's scheduling point: in Async mode one follows every
	// commit, in barrier mode one issues each round. A pass is
	// starved when it ends with the strategy stalled and fewer
	// evaluation slots filled than the mode provides. Async mode
	// provides AsyncDepth pipeline slots, filled by the candidates in
	// flight. Barrier mode provides Workers slots, filled by the
	// round's fresh evaluations and the prefetches launched beside
	// it. Both counters are pure functions of the commit sequence.
	QueueStarved int
	// IdleSlots sums the unfilled slots over the starved passes — the
	// integral of the starvation that QueueStarved counts events of.
	// One pass adds at most AsyncDepth in Async mode and at most
	// Workers in barrier mode.
	IdleSlots int
}

// Improvement returns the fractional improvement of the best value
// over the first evaluated configuration, e.g. 0.18 for the paper's
// 18% PETSc result. It returns 0 when no baseline is available.
func (r *Result) Improvement() float64 {
	if r.FirstValue <= 0 || math.IsInf(r.FirstValue, 1) {
		return 0
	}
	return (r.FirstValue - r.BestValue) / r.FirstValue
}

// Speedup returns FirstValue/BestValue, e.g. 3.4 for the paper's GS2
// layout result. It returns 1 when no baseline is available.
func (r *Result) Speedup() float64 {
	if r.BestValue <= 0 || r.FirstValue <= 0 {
		return 1
	}
	return r.FirstValue / r.BestValue
}

// ErrNoEvaluations is returned when the session ends before any
// configuration was evaluated.
var ErrNoEvaluations = errors.New("core: tuning session performed no evaluations")
