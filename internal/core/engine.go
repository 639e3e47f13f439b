package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"harmony/internal/search"
	"harmony/internal/space"
)

// DefaultAsyncDepth is the pipeline capacity in Async mode when
// Options.AsyncDepth is unset: up to this many issued candidates may
// be awaiting their commit at once.
const DefaultAsyncDepth = 8

// applyProposalDefault fills in the MaxProposals guard.
func applyProposalDefault(opt *Options) {
	if opt.MaxProposals == 0 {
		if opt.MaxRuns > 0 {
			opt.MaxProposals = 10 * opt.MaxRuns
		} else {
			opt.MaxProposals = 10000
		}
	}
}

// lookupCache consults the cross-session cache, if configured.
func lookupCache(opt Options, pt space.Point) (float64, bool) {
	if opt.Cache == nil {
		return 0, false
	}
	return opt.Cache.Lookup(pt)
}

// candKind classifies one issued candidate of the pipeline.
type candKind int

const (
	// kindFresh launched an objective evaluation; charged to Runs.
	kindFresh candKind = iota
	// kindSpecHit consumes a speculative prefetch; charged to Runs.
	kindSpecHit
	// kindCacheHit was answered by Options.Cache; charged to Runs.
	kindCacheHit
	// kindFollower duplicates an earlier charged candidate; free.
	kindFollower
	// kindPruned was skipped by the surrogate model; free.
	kindPruned
)

// cand is one sequence-numbered candidate of the issue/commit
// pipeline. The predicted score of a pruned candidate and the
// measured value of a charged one live in separate fields on purpose:
// predictions choose what to evaluate and must never flow into the
// measured accounts.
type cand struct {
	kind   candKind
	pt     space.Point
	key    string
	cfg    space.Config
	job    *evalJob // evaluation backing a fresh or spec-hit candidate
	leader *cand    // the charged candidate a follower duplicates
	// cacheVal is the Options.Cache answer for a cache-hit candidate.
	cacheVal float64
	// score is the surrogate prediction for a pruned candidate.
	score float64
	// surKept marks a charged candidate the surrogate scored and
	// committed to simulation.
	surKept bool
	// value/err hold the committed outcome, read by later followers.
	value float64
	err   error
}

// evalJob is one objective evaluation in flight on the worker pool.
// The coordinator writes the struct before launch and reads it only
// after receiving it back on the results channel, which orders the
// worker's writes before the reads.
type evalJob struct {
	key    string
	cfg    space.Config
	ctx    context.Context
	cancel context.CancelFunc
	value  float64
	err    error
	ran    bool // obj was actually invoked (not skipped by cancellation)
	spec   bool // speculative prefetch, charged only if consumed
	// discarded marks a speculative job whose point the strategy's
	// state moved away from; its result is dropped on receipt.
	discarded bool
	// done is set by the coordinator when the result has been
	// received; candidates backed by this job are then committable.
	done bool
}

// candRing is the in-flight candidate window: a FIFO indexed by issue
// order, so the head is always the next candidate to commit. The
// cursor helpers below are the steady-state bookkeeping of the
// issue/commit loop and are annotated (and vet-enforced) allocation-
// free — the pipeline allocates per candidate, never per poll.
type candRing struct {
	buf  []*cand
	head int
	n    int
}

func newCandRing(capacity int) *candRing {
	return &candRing{buf: make([]*cand, capacity)}
}

// reserve grows an empty ring to hold at least n candidates. Barrier
// mode calls it before issuing a round, so the ring always holds a
// whole round however large the strategy makes it.
func (r *candRing) reserve(n int) {
	if r.n == 0 && len(r.buf) < n {
		r.buf, r.head = make([]*cand, n), 0
	}
}

//harmonyvet:allocfree
func (r *candRing) full() bool { return r.n == len(r.buf) }

//harmonyvet:allocfree
func (r *candRing) free() int { return len(r.buf) - r.n }

//harmonyvet:allocfree
func (r *candRing) push(c *cand) {
	r.buf[(r.head+r.n)%len(r.buf)] = c
	r.n++
}

// at returns the i-th in-flight candidate in issue order.
//
//harmonyvet:allocfree
func (r *candRing) at(i int) *cand { return r.buf[(r.head+i)%len(r.buf)] }

//harmonyvet:allocfree
func (r *candRing) pop() *cand {
	c := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return c
}

// ready reports whether the head candidate's outcome is in hand.
//
//harmonyvet:allocfree
func (r *candRing) ready() bool {
	if r.n == 0 {
		return false
	}
	c := r.buf[r.head]
	return c.job == nil || c.job.done
}

// Tune drives the strategy against the objective until the strategy
// converges, a budget is exhausted, StopBelow is reached, or the
// context is cancelled, and returns the full trial log.
//
// There is one engine: a bounded issue/commit pipeline. The engine
// asks the strategy for candidates, evaluates them on up to
// Options.Workers concurrent objective calls, and commits the results
// to the strategy in exactly the order the candidates were issued
// (out-of-order completions wait in the sequence-numbered pipeline).
// Evaluations are memoised, so a lattice point proposed twice (common
// for the snapped simplex) costs one application run. Options.Async
// picks one of two ways to drive the strategy:
//
//   - Barrier mode (Async off) drives the strategy's BatchStrategy
//     view round by round: the pipeline takes in a whole round (the
//     PRO population, a sampler stride, or the single proposal of a
//     sequential strategy), commits it, and only then asks for the
//     next one. This is the paper's off-line loop at Workers 1, and
//     parallel tuning clients evaluating a round at once above that.
//     The surrogate scores each round as a whole. While a sequential
//     strategy that speculates (the simplex) waits on its proposal,
//     workers the round leaves idle prefetch its possible follow-ups.
//   - Async mode drives the strategy's AsyncStrategy view (native for
//     the ensemble) with up to Options.AsyncDepth candidates in
//     flight, asking for more after every commit, so a slow
//     evaluation stalls the search only when the strategy cannot
//     advance without it. The surrogate scores each candidate alone.
//
// Determinism: the issue/commit trace is a pure function of the
// strategy, the mode, and, in Async mode, AsyncDepth. The trial log
// and every account derived from it are therefore bit-identical for
// every worker count; only WorkerOccupancy, the speculation counters,
// and, in barrier mode, the starvation counters depend on Workers.
// For a strategy driven through its rounds, both modes reproduce the
// plain sequential loop — one Next, one run, one Report — exactly.
// Trials are recorded in proposal order, MaxRuns is never exceeded by
// in-flight work, pruned proposals are charged to no account, and
// StopBelow ends the session at the earliest qualifying measured
// commit; evaluations launched but never charged (unused speculation,
// candidates past the stop) are reported in Result.SpeculativeRuns.
//
// The strategy is engine-locked: only the coordinating goroutine
// calls it, so strategies need no locking of their own. Objectives
// must be safe for concurrent calls when Workers > 1; each call
// receives a per-evaluation context that is cancelled when its result
// can no longer matter. Objectives that launch simmpi worlds scale
// gracefully: the substrate's cooperative scheduler keeps exactly one
// rank runnable per world, so Workers concurrent evaluations of an
// n-rank application put about Workers goroutines in front of the Go
// scheduler, not Workers×n.
func Tune(ctx context.Context, sp *space.Space, strat search.Strategy, obj Objective, opt Options) (*Result, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	applyProposalDefault(&opt)

	var as search.AsyncStrategy
	var ring *candRing
	if opt.Async {
		depth := opt.AsyncDepth
		if depth <= 0 {
			depth = DefaultAsyncDepth
		}
		as, ring = search.AsAsync(strat), newCandRing(depth)
	} else {
		// The round adapter even for native async strategies, so the
		// ensemble runs as rounds of one; the ring grows per round.
		as, ring = search.AsAsync(search.AsBatch(strat)), newCandRing(workers)
	}
	speculator, _ := as.(search.Speculator)
	sur := newSurrogateState(opt.Surrogate)

	res := &Result{Strategy: strat.Name(), BestValue: math.Inf(1), FirstValue: math.NaN()}
	leaders := make(map[string]*cand) // charged candidates by key, issue order
	spec := make(map[string]*evalJob) // prefetches not yet proposed

	// Worker pool: one goroutine per evaluation, gated to Workers
	// concurrent objective calls by a semaphore. The coordinator is
	// the only goroutine that touches the strategy, the result, or
	// any map — workers communicate exclusively through the results
	// channel.
	sem := make(chan struct{}, workers)
	resultsCh := make(chan *evalJob)
	sent, received := 0, 0
	var busyNS atomic.Int64
	started := time.Now()
	launch := func(j *evalJob) {
		sent++
		go func() {
			sem <- struct{}{}
			if j.ctx.Err() == nil {
				j.ran = true
				t0 := time.Now()
				j.value, j.err = obj(j.ctx, j.cfg)
				busyNS.Add(int64(time.Since(t0)))
			} else {
				j.err = j.ctx.Err()
			}
			<-sem
			resultsCh <- j
		}()
	}
	recv := func() *evalJob {
		j := <-resultsCh
		received++
		j.done = true
		return j
	}

	var (
		issuedProposals int  // candidates issued (committed + in flight)
		issuedRuns      int  // charged candidates issued; bounds MaxRuns
		exhausted       bool // the run budget refused a proposal
		stopped         bool // StopBelow reached at a commit
		decodeErr       error
	)
	decode := func(pt space.Point) (space.Config, bool) {
		cfg, err := sp.Decode(pt)
		if err != nil {
			// Counted as a proposal on exit, as the sequential loop
			// would; candidates issued before it still commit first.
			decodeErr = fmt.Errorf("core: strategy %s proposed undecodable point %v: %w", strat.Name(), pt, err)
			return space.Config{}, false
		}
		return cfg, true
	}

	// issue classifies one proposal and appends it to the pipeline:
	// follower of an issued charged candidate, pruned (the surrogate
	// gate, consulted only for non-followers, said so), or charged —
	// answered by a prefetch, by the cache, or by a fresh evaluation.
	// It returns false, issuing nothing, when the run budget cannot
	// cover a charged candidate.
	issue := func(pt space.Point, cfg space.Config, gate func() (kept, scored bool, score float64)) bool {
		key := pt.Key()
		c := &cand{pt: pt, key: key, cfg: cfg}
		if lead, ok := leaders[key]; ok {
			c.kind, c.leader = kindFollower, lead
		} else if kept, scored, score := gate(); !kept {
			c.kind, c.score = kindPruned, score
		} else {
			if opt.MaxRuns > 0 && issuedRuns >= opt.MaxRuns {
				exhausted = true
				return false
			}
			issuedRuns++
			if scored {
				sur.committed(score)
				c.surKept = true
			}
			leaders[key] = c
			if j, ok := spec[key]; ok {
				delete(spec, key)
				c.kind, c.job = kindSpecHit, j
			} else if cv, ok := lookupCache(opt, pt); ok {
				c.kind, c.cacheVal = kindCacheHit, cv
			} else {
				jctx, jcancel := context.WithCancel(ctx)
				c.job = &evalJob{key: key, cfg: cfg, ctx: jctx, cancel: jcancel}
				launch(c.job)
			}
		}
		issuedProposals++
		ring.push(c)
		return true
	}
	canIssue := func() bool {
		return !exhausted && !stopped && decodeErr == nil && issuedProposals < opt.MaxProposals
	}

	// fillAsync issues candidates until the pipeline is full, the
	// strategy has nothing to offer, or a budget boundary is reached,
	// scoring each candidate with the surrogate on its own. It returns
	// true when the strategy stalled with capacity to spare.
	fillAsync := func() bool {
		for canIssue() && !ring.full() {
			pt, ok := as.Ask()
			if !ok {
				return !as.Done()
			}
			cfg, ok := decode(pt)
			if !ok {
				return false
			}
			gate := func() (bool, bool, float64) {
				if sur == nil {
					return true, false, 0
				}
				scores, ok := sur.scoreBatch([]space.Point{pt}, []space.Config{cfg})
				if !ok {
					// Low-confidence model: evaluate this candidate.
					res.SurrogateFallbacks++
					return true, false, 0
				}
				return sur.keepMask(scores)[0], true, scores[0]
			}
			if !issue(pt, cfg, gate) {
				return false
			}
		}
		return false
	}

	// fillRound issues the next round when the pipeline is empty: it
	// asks the adapter until it stalls, which is exactly the rest of
	// the round, and scores the whole round with the surrogate at
	// once, since the keep quota is a property of the round. It
	// returns the number of fresh evaluations the round launched and
	// whether a round was issued.
	fillRound := func() (int, bool) {
		if ring.n > 0 {
			return 0, false
		}
		var pts []space.Point
		var cfgs []space.Config
		for canIssue() && issuedProposals+len(pts) < opt.MaxProposals {
			pt, ok := as.Ask()
			if !ok {
				break
			}
			cfg, ok := decode(pt)
			if !ok {
				break
			}
			pts, cfgs = append(pts, pt), append(cfgs, cfg)
		}
		if len(pts) == 0 {
			return 0, false
		}
		var scores []float64
		var keep []bool
		if sur != nil {
			if s, ok := sur.scoreBatch(pts, cfgs); ok {
				scores, keep = s, sur.keepMask(s)
			} else {
				// Low-confidence model: simulate the whole round.
				res.SurrogateFallbacks++
			}
		}
		ring.reserve(len(pts))
		fresh := 0
		for i := range pts {
			gate := func() (bool, bool, float64) {
				if keep == nil {
					return true, false, 0
				}
				return keep[i], true, scores[i]
			}
			if !issue(pts[i], cfgs[i], gate) {
				break
			}
			if c := ring.at(ring.n - 1); c.kind == kindFresh {
				fresh++
			}
		}
		return fresh, true
	}

	// speculate asks the stalled strategy for up to ask likely
	// follow-up proposals and launches up to room of those not yet
	// evaluated or prefetched. Async mode first discards the
	// prefetches the strategy no longer predicts and never holds more
	// than the pipeline has free slots; barrier mode keeps every
	// prefetch until it is proposed or the session ends, like the
	// results of a finished round. Speculation only rides on capacity
	// genuine candidates left idle, and only when there is more than
	// one worker to ride on. It returns the number launched.
	speculate := func(ask, room int) int {
		if speculator == nil || workers <= 1 || exhausted || stopped || decodeErr != nil {
			return 0
		}
		want := speculator.Speculate(ask)
		desired := make(map[string]bool, len(want))
		var launchPts []space.Point
		for _, pt := range want {
			key := pt.Key()
			if desired[key] {
				continue
			}
			if _, ok := leaders[key]; ok {
				continue
			}
			if _, ok := lookupCache(opt, pt); ok {
				continue // the cache will answer it when proposed
			}
			desired[key] = true
			if _, ok := spec[key]; !ok {
				launchPts = append(launchPts, pt)
			}
		}
		if opt.Async {
			stale := make([]string, 0, len(spec))
			for key := range spec {
				if !desired[key] {
					stale = append(stale, key)
				}
			}
			sort.Strings(stale)
			for _, key := range stale {
				j := spec[key]
				j.discarded = true
				j.cancel()
				delete(spec, key)
			}
		}
		launched := 0
		for _, pt := range launchPts {
			if launched >= room || opt.Async && len(spec) >= ring.free() {
				break
			}
			cfg, err := sp.Decode(pt)
			if err != nil {
				continue // never fail the session on a speculative point
			}
			jctx, jcancel := context.WithCancel(ctx)
			j := &evalJob{key: pt.Key(), cfg: cfg, ctx: jctx, cancel: jcancel, spec: true}
			spec[pt.Key()] = j
			res.SpeculativeRuns++
			launched++
			launch(j)
		}
		return launched
	}

	// refill is the engine's scheduling point, run once before the
	// first commit and once after every commit, so the starvation
	// accounting and the speculation schedule are pure functions of
	// the commit sequence. A pass is starved when the strategy stalls
	// while the engine could hold more work (see Result.QueueStarved).
	refill := func() {
		if opt.Async {
			if fillAsync() && ring.n > 0 {
				res.QueueStarved++
				res.IdleSlots += ring.free()
				speculate(ring.free(), ring.free())
			}
			return
		}
		if fresh, ok := fillRound(); ok {
			busy := fresh + speculate(workers, min(workers-fresh, ring.free()))
			if busy < workers {
				res.QueueStarved++
				res.IdleSlots += workers - busy
			}
		}
	}

	// finish cancels everything still outstanding, drains the worker
	// pool, and settles the wall-clock diagnostics. Charged work that
	// completed but was never committed (candidates past a StopBelow
	// cut) counts as speculative wall-clock.
	finish := func() {
		for i := 0; i < ring.n; i++ {
			if j := ring.at(i).job; j != nil && !j.spec {
				j.cancel()
			}
		}
		keys := make([]string, 0, len(spec))
		for key := range spec {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			spec[key].cancel()
		}
		for received < sent {
			recv()
		}
		for i := 0; i < ring.n; i++ {
			c := ring.at(i)
			if c.kind == kindFresh && c.job.ran {
				res.SpeculativeRuns++
			}
		}
		if span := time.Since(started); span > 0 {
			res.WorkerOccupancy = float64(busyNS.Load()) / (float64(span.Nanoseconds()) * float64(workers))
		}
	}

	// commitHead blocks until the head candidate's outcome is in hand
	// and commits it: trial recorded, accounts charged, value
	// delivered to the strategy.
	commitHead := func() error {
		for !ring.ready() {
			j := recv()
			if j.spec && !j.discarded && !j.ran {
				// A prefetch cut short by cancellation is dropped; an
				// on-demand proposal of its point must re-evaluate.
				delete(spec, j.key)
			}
		}
		c := ring.pop()
		res.Proposals++
		trial := Trial{Proposal: res.Proposals, Point: c.pt.Clone(), Config: c.cfg}
		switch c.kind {
		case kindPruned:
			// Answered with the model's prediction: logged, reported,
			// charged to no account, never eligible for Best or any
			// cache.
			res.SurrogatePruned++
			trial.Value, trial.Pruned = c.score, true
			res.Trials = append(res.Trials, trial)
			as.Commit(c.pt, c.score)
			return nil
		case kindFollower:
			lead := c.leader
			trial.Cached, trial.Value, trial.Err = true, lead.value, lead.err
			res.Trials = append(res.Trials, trial)
			as.Commit(c.pt, lead.value)
			return nil
		}
		var v float64
		var verr error
		switch c.kind {
		case kindCacheHit:
			v = c.cacheVal
			res.CacheHits++
		case kindSpecHit:
			res.SpeculativeHits++
			v, verr = c.job.value, c.job.err
		case kindFresh:
			v, verr = c.job.value, c.job.err
		}
		if verr != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		res.Runs++
		trial.Run = res.Runs
		if c.surKept {
			res.SurrogateKept++
		}
		if opt.Cache != nil && c.kind != kindCacheHit {
			res.CacheMisses++
		}
		if verr != nil {
			res.Failures++
			v = math.Inf(1)
			trial.Err = verr
			// A failed run still paid its launch and teardown.
			res.TuningCost += opt.RunOverhead
		} else {
			res.TuningCost += v + opt.RunOverhead
			if opt.Cache != nil && c.kind != kindCacheHit {
				opt.Cache.Store(c.pt, v)
			}
		}
		trial.Value = v
		c.value, c.err = v, trial.Err
		if math.IsNaN(res.FirstValue) {
			res.FirstValue = v
		}
		if v < res.BestValue {
			res.Best = c.pt.Clone()
			res.BestConfig = c.cfg
			res.BestValue = v
			res.BestAtRun = res.Runs
		}
		if opt.Logf != nil {
			opt.Logf("run %3d (proposal %3d): %s -> %.6g", res.Runs, res.Proposals, c.cfg.Format(), v)
		}
		res.Trials = append(res.Trials, trial)
		as.Commit(c.pt, v)
		if opt.StopBelow != 0 && res.BestValue <= opt.StopBelow {
			stopped = true
		}
		return nil
	}

	refill()
	for ring.n > 0 {
		if err := ctx.Err(); err != nil {
			finish()
			return res, err
		}
		if err := commitHead(); err != nil {
			finish()
			return res, err
		}
		if stopped {
			break
		}
		refill()
	}
	finish()
	// A proposal the session refused — undecodable, or beyond the run
	// budget — counts as a proposal, unless StopBelow ended the
	// session before the strategy would have made it.
	if !stopped {
		if decodeErr != nil {
			res.Proposals++
			return res, decodeErr
		}
		if exhausted {
			res.Proposals++
		} else if as.Done() {
			res.Converged = true
		}
	}
	if res.Runs == 0 {
		return res, ErrNoEvaluations
	}
	return res, nil
}
