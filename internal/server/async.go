package server

import (
	"math"
	"sort"
	"time"

	"harmony/internal/proto"
	"harmony/internal/space"
)

// Async dispatch: the server-side face of the pipelined evaluation
// engine. A session registered with proto.Message.Async pulls
// candidates from an AsyncStrategy one at a time into a bounded
// window (the session's asyncDepth) and hands distinct candidates to
// concurrent clients, so a fast client is never parked behind a
// round barrier waiting for the slowest member of its round.
//
// Commit order is the determinism linchpin, exactly as in
// core.Tune's Async mode: candidates are committed to the strategy in the
// order they were issued, whatever order their reports arrive in.
// Out-of-order completions wait in the window until every earlier
// candidate has completed; only drainAsyncLocked talks to the
// strategy, and only at the head. The candidate sequence the
// strategy observes is therefore a pure function of the strategy and
// the reported values, never of client timing.
//
// Measured and predicted values stay in separate fields (worst vs
// pred), meeting only in the Commit call at the strategy boundary —
// the same separation fanoutRound maintains, and for the same
// reason: prunepurity proves mechanically that no surrogate
// prediction can reach the evaluation cache, the measured-best
// shadow, or run accounting through this struct.

// asyncIssue is one candidate of the pipelined window, identified by
// its issue sequence. The window commits strictly in seq order.
type asyncIssue struct {
	seq      int         // issue order; the commit order
	pt       space.Point // the candidate
	assigned int         // times handed to a client (least-assigned re-issue)
	count    int         // reports received
	worst    float64     // worst measured report (-Inf sentinel: none yet)
	pred     float64     // surrogate prediction, pruned candidates only
	pruned   bool        // answered by the model, never handed to a client
	complete bool        // all reports in (or pre-filled / forfeited)
	expiries int         // straggler deadlines missed
}

// asyncTag records one handed-out candidate, keyed by wire tag.
type asyncTag struct {
	entry  *asyncIssue
	issued time.Time // straggler deadline base
}

// deliveryValue is what the strategy is told for a completed
// candidate: the measurement, or the model's prediction for a pruned
// candidate — the one channel predictions are designed to flow
// through.
func (e *asyncIssue) deliveryValue() float64 {
	if e.pruned {
		return e.pred
	}
	return e.worst
}

// fillAsyncLocked tops the window up to the session's depth, asking
// the strategy for new candidates and resolving each against the
// evaluation cache and the surrogate gate before it can reach a
// client. Cache hits and surrogate prunes complete immediately (they
// still commit in seq order); everything else waits for client
// reports. Stops at the run budget: a candidate the budget cannot
// afford is left issued-but-abandoned, which the AsyncStrategy
// contract allows.
func (ss *session) fillAsyncLocked() {
	for !ss.converged && !ss.asyncExhausted && len(ss.asyncWindow) < ss.asyncDepth {
		pt, ok := ss.asyncStrat.Ask()
		if !ok {
			if ss.asyncStrat.Done() {
				ss.converged = true
			} else if len(ss.asyncWindow) > 0 {
				// The strategy needs commits it has not received: the
				// pipeline is starved by in-flight work, not drained.
				ss.stat().queueStarved.Add(1)
			}
			return
		}
		e := &asyncIssue{seq: ss.asyncSeq, pt: pt, worst: math.Inf(-1)}
		ss.asyncSeq++
		if ss.cache != nil {
			if v, cok := ss.cache.Lookup(pt); cok {
				// Answered from the evaluation cache: charged (the
				// paper's cost model counts it) and complete without any
				// client round trip.
				ss.runs++
				ss.stat().cacheHits.Add(1)
				ss.noteMeasuredLocked(pt, v)
				e.worst = v
				e.complete = true
				ss.asyncWindow = append(ss.asyncWindow, e)
				continue
			}
			ss.stat().cacheMisses.Add(1)
		}
		if ss.surGate != nil {
			if cfg, err := ss.space.Decode(pt); err == nil {
				if score, sok := ss.surGate.Score(pt, cfg); !sok {
					// Outside the model's competence: evaluate for real.
					ss.stat().surrogateFallback.Add(1)
				} else if !ss.surGate.Keep([]float64{score})[0] && ss.surPrunes < ss.pruneBudget() {
					// Confidently worse than the best candidate the
					// session committed to measure: complete at the
					// predicted value, charge no run.
					ss.surPrunes++
					ss.stat().surrogatePruned.Add(1)
					e.pred = score
					e.pruned = true
					e.complete = true
					ss.asyncWindow = append(ss.asyncWindow, e)
					continue
				} else {
					ss.surGate.Committed(score)
					ss.stat().surrogateKept.Add(1)
				}
			}
			// An undecodable candidate falls through uncharged here and
			// is forfeited at hand-out time, like the parallel path.
		}
		if ss.maxRuns > 0 && ss.runs >= ss.maxRuns {
			// The budget cannot afford this candidate: abandon the issue
			// (never committed) and stop pulling. The window drains as
			// outstanding reports arrive.
			ss.asyncExhausted = true
			return
		}
		ss.runs++
		ss.asyncWindow = append(ss.asyncWindow, e)
	}
}

// drainAsyncLocked commits completed candidates to the strategy, in
// issue order, stopping at the first incomplete one. This is the only
// place async mode talks to the strategy about results.
func (ss *session) drainAsyncLocked() {
	for len(ss.asyncWindow) > 0 && ss.asyncWindow[0].complete {
		head := ss.asyncWindow[0]
		ss.asyncWindow = ss.asyncWindow[1:]
		ss.asyncStrat.Commit(head.pt, head.deliveryValue())
		ss.stat().asyncCommitted.Add(1)
	}
}

// fetchAsyncLocked hands out one candidate of the pipelined window.
// Distinct clients receive distinct candidates until the window is
// covered; further fetches re-issue the least-assigned incomplete
// candidate (a fetch is never refused — a client that lost its
// assignment to a crash re-fetches and another takes over).
func (ss *session) fetchAsyncLocked(now time.Time) *proto.Message {
	for {
		ss.fillAsyncLocked()
		ss.drainAsyncLocked()
		var pick *asyncIssue
		for _, e := range ss.asyncWindow {
			if e.complete {
				continue
			}
			if pick == nil || e.assigned < pick.assigned {
				pick = e
			}
		}
		if pick == nil {
			// Nothing to hand out. An empty window with a stalled
			// strategy means nothing is in flight and the strategy still
			// has nothing to say: it is done in every way that matters.
			if len(ss.asyncWindow) == 0 && !ss.converged && !ss.asyncExhausted {
				ss.converged = true
			}
			return ss.bestOrCurrentLocked()
		}
		cfg, err := ss.space.Decode(pick.pt)
		if err != nil {
			// An undecodable candidate can never be handed out, so no
			// report would ever complete it: forfeit immediately with
			// the penalty value so the pipeline keeps moving.
			pick.worst = penaltyValue
			pick.complete = true
			ss.stat().proposalsForfeited.Add(1)
			continue
		}
		pick.assigned++
		ss.nextTag++
		ss.asyncTags[ss.nextTag] = &asyncTag{entry: pick, issued: now}
		return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Tag: ss.nextTag}
	}
}

// reportAsyncLocked matches a tagged report to its window candidate.
// Stale tags (an expired issue, a retired candidate) and surplus
// reports are acknowledged and dropped, exactly as in parallel mode.
func (ss *session) reportAsyncLocked(msg *proto.Message) *proto.Message {
	iss, ok := ss.asyncTags[msg.Tag]
	if !ok {
		ss.stat().reportsDroppedStale.Add(1)
		return &proto.Message{Type: proto.TypeOK}
	}
	delete(ss.asyncTags, msg.Tag)
	e := iss.entry
	if e.complete {
		ss.stat().reportsDroppedStale.Add(1)
		return &proto.Message{Type: proto.TypeOK}
	}
	e.count++
	ss.stat().reportsAccepted.Add(1)
	// Sanitize at ingress, mirroring reportParallelLocked: NaN compares
	// false with everything and would leave worst at its -Inf sentinel.
	perf := msg.Perf
	if math.IsNaN(perf) {
		perf = penaltyValue
	}
	if perf > e.worst {
		e.worst = perf
	}
	if e.count >= ss.reporters {
		e.complete = true
		// A naturally completed candidate (full reports, finite
		// aggregate) is banked; forfeits never reach this path.
		if ss.cache != nil && !math.IsInf(e.worst, 0) {
			ss.cache.Store(e.pt, e.worst)
		}
		ss.noteMeasuredLocked(e.pt, e.worst)
		ss.drainAsyncLocked()
	}
	return &proto.Message{Type: proto.TypeOK}
}

// expireAsyncLocked retires overdue tags of the pipelined window. An
// expired candidate's assignment count is decremented so the
// least-assigned logic in fetchAsyncLocked re-issues it naturally;
// past the re-issue limit the candidate is forfeited — completed with
// the reports it has, or the penalty value if it has none — so the
// pipeline always drains.
func (ss *session) expireAsyncLocked(now time.Time) {
	if len(ss.asyncTags) == 0 {
		return
	}
	// Visit outstanding tags in issue order, not map order: re-issue
	// and forfeit decisions feed the strategy and the counters, and
	// the schedule they induce must not vary run to run.
	tags := make([]int, 0, len(ss.asyncTags))
	for tag := range ss.asyncTags {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	for _, tag := range tags {
		iss := ss.asyncTags[tag]
		if now.Sub(iss.issued) < ss.reportTimeout {
			continue
		}
		delete(ss.asyncTags, tag)
		e := iss.entry
		if e.complete {
			continue // candidate already complete; nothing to redo
		}
		if e.assigned > 0 {
			e.assigned--
		}
		e.expiries++
		if e.expiries <= ss.reissueLimit() {
			ss.stat().proposalsReissued.Add(1)
			continue
		}
		if e.worst == math.Inf(-1) {
			e.worst = penaltyValue
		} else {
			// Forfeited with partial reports: the surviving ranks'
			// aggregate is still a genuine measurement.
			ss.noteMeasuredLocked(e.pt, e.worst)
		}
		e.complete = true
		ss.stat().proposalsForfeited.Add(1)
	}
	ss.drainAsyncLocked()
}
