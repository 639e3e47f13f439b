package server

import (
	"math"
	"sort"
	"time"

	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// The dispatch window: every session, whatever it registered, drives
// one search.AsyncStrategy through one window of entries. The window
// has one fill, one hand-out, one report intake, one straggler expiry
// and one drain, and the registration only chooses its shape:
//
//   - depth: 1 for the paper's shared sequential mode, AsyncDepth for
//     Async, and 0 — one whole strategy round — for Parallel;
//   - surrogate scoring: per candidate, or per round for Parallel,
//     whose keep quota (core.SurrogateGate.Keep) needs every score of
//     the round at once, as core.Tune's barrier mode does;
//   - hand-out: shared (every fetch gets the head entry, stamped with
//     its Gen, and reports are matched by Gen) for sequential sessions,
//     distinct (each fetch gets the least-assigned incomplete entry
//     under its own Tag) otherwise.
//
// Sequential and Parallel sessions drive their strategy a round at a
// time (see roundFeed): the run budget is checked before a round is
// asked for, and when a round commits every hand-out of it retires.
// Async sessions ask candidate by candidate and abandon the first one
// the budget cannot afford, as the AsyncStrategy contract allows.
//
// Commit order is the determinism linchpin, exactly as in core.Tune:
// entries commit to the strategy in the order they were issued,
// whatever order their reports arrive in. Only drainLocked talks to
// the strategy about results, and only at the head, so the sequence
// the strategy observes is a pure function of the strategy and the
// reported values, never of client timing.
//
// Measured and predicted values stay in separate fields (worst vs
// pred), meeting only in the Commit call at the strategy boundary —
// the one channel predictions are designed to flow through. That
// separation is what lets prunepurity prove mechanically that no
// surrogate prediction can reach the evaluation cache, the
// measured-best shadow, or run accounting through this struct.

// entry is one candidate of the window, in issue order.
type entry struct {
	pt       space.Point
	cfg      space.Config // decoded pt, the values handed to clients
	gen      int          // shared hand-out: the Gen on its replies (0 until handed out)
	assigned int          // distinct hand-out: times handed to a client
	count    int          // reports received
	worst    float64      // worst measured report (-Inf sentinel: none yet)
	pred     float64      // surrogate prediction, pruned entries only
	pruned   bool         // answered by the model, never handed to a client
	complete bool         // all reports in (or answered / forfeited)
	expiries int          // straggler deadlines missed
}

// handout records one hand-out of an entry: a distinct hand-out under
// its wire tag, or a shared entry under its generation.
type handout struct {
	entry  *entry
	issued time.Time // straggler deadline base
}

// deliveryValue is what the strategy is told for a completed entry:
// the measurement, or the model's prediction for a pruned entry.
func (e *entry) deliveryValue() float64 {
	if e.pruned {
		return e.pred
	}
	return e.worst
}

// verdict is the surrogate's decision on one entry.
type verdict uint8

const (
	evaluate verdict = iota // no model, or the model declined: evaluate for real
	keepIt                  // scored and kept: commit to measuring it
	pruneIt                 // confidently worse: answer at the prediction
)

// roundFeed presents the strategy of a sequential or Parallel session
// to search.AsAsync as rounds. A sequential session's rounds are single
// Next/Report proposals, the strict ask/tell of the paper's shared
// mode; a Parallel session's are its BatchStrategy rounds, truncated to
// the remaining run budget. Reporting that truncated prefix is legal —
// BatchStrategy allows a strict prefix of the last NextBatch, and PRO
// resumes the phase — and it is what lets the final round of a
// budgeted campaign still reach the strategy.
type roundFeed struct {
	search.Strategy
	batch search.BatchStrategy // nil: rounds of one through Next/Report
	ss    *session
}

func (f *roundFeed) NextBatch() []space.Point {
	if f.batch == nil {
		pt, ok := f.Next()
		if !ok {
			return nil
		}
		return []space.Point{pt}
	}
	round := f.batch.NextBatch()
	if rem := f.ss.maxRuns - f.ss.runs; f.ss.maxRuns > 0 && len(round) > rem {
		round = round[:rem]
	}
	return round
}

func (f *roundFeed) ReportBatch(pts []space.Point, values []float64) {
	if f.batch == nil {
		f.Report(pts[0], values[0])
		return
	}
	f.batch.ReportBatch(pts, values)
	f.ss.stat().roundsCompleted.Add(1)
}

// fillLocked tops the window up to its depth, asking the strategy for
// new candidates and settling each against the evaluation cache and the
// surrogate before it can reach a client.
func (ss *session) fillLocked() {
	fresh := len(ss.window)
	for !ss.converged && !ss.exhausted && (ss.depth == 0 || len(ss.window) < ss.depth) {
		if !ss.async && len(ss.window) == 0 && ss.maxRuns > 0 && ss.runs >= ss.maxRuns {
			// A round would start past the budget: ask for nothing.
			ss.exhausted = true
			break
		}
		pt, ok := ss.strategy.Ask()
		if !ok {
			if ss.strategy.Done() {
				ss.converged = true
			} else if ss.async && len(ss.window) > 0 {
				// The strategy needs commits it has not received: the
				// pipeline is starved by in-flight work, not drained.
				ss.stat().queueStarved.Add(1)
			}
			break
		}
		e := &entry{pt: pt, worst: math.Inf(-1)}
		cfg, err := ss.space.Decode(pt)
		if err != nil {
			// An undecodable candidate can never be handed out, so no
			// report would ever complete it: forfeit it at the penalty
			// value, uncharged, so the search keeps moving.
			e.worst, e.complete = penaltyValue, true
			ss.stat().proposalsForfeited.Add(1)
			ss.window = append(ss.window, e)
			continue
		}
		e.cfg = cfg
		if ss.depth == 0 {
			ss.window = append(ss.window, e) // settled with its round, below
			continue
		}
		if !ss.cachedLocked(e) {
			if v, score := ss.judgeLocked(e); !ss.admitLocked(e, v, score) {
				return
			}
		}
		ss.window = append(ss.window, e)
	}
	if ss.depth == 0 && fresh < len(ss.window) {
		ss.settleRoundLocked(ss.window[fresh:])
	}
}

// settleRoundLocked settles a freshly asked Parallel round. With a
// surrogate the whole round is scored up front: pruning is a per-round
// quota, so the decision needs every score. Any point the model
// declines — or that cannot be decoded — sends the entire round to
// full evaluation.
func (ss *session) settleRoundLocked(round []*entry) {
	var scores []float64
	var keep []bool
	if ss.surGate != nil {
		sc := make([]float64, len(round))
		ok := true
		for i, e := range round {
			if e.complete { // forfeited undecodable
				ok = false
				break
			}
			if sc[i], ok = ss.surGate.Score(e.pt, e.cfg); !ok {
				break
			}
		}
		if ok {
			scores = sc
			keep = ss.surGate.Keep(scores)
		} else {
			ss.stat().surrogateFallback.Add(1)
		}
	}
	for i, e := range round {
		if e.complete || ss.cachedLocked(e) {
			continue
		}
		v, score := evaluate, 0.0
		if keep != nil {
			v, score = pruneIt, scores[i]
			if keep[i] {
				v = keepIt
			}
		}
		ss.admitLocked(e, v, score)
	}
}

// cachedLocked answers a fresh entry from the evaluation cache when it
// holds the point. A hit is charged (the paper's cost model counts it)
// and completes the entry without any client round trip.
func (ss *session) cachedLocked(e *entry) bool {
	if ss.cache == nil {
		return false
	}
	val, ok := ss.cache.Lookup(e.pt)
	if !ok {
		ss.stat().cacheMisses.Add(1)
		return false
	}
	ss.runs++
	ss.stat().cacheHits.Add(1)
	ss.noteMeasuredLocked(e.pt, val)
	e.worst, e.complete = val, true
	return true
}

// admitLocked applies the surrogate's verdict to a fresh entry the
// cache missed: a pruned entry completes at its prediction, uncharged;
// any other is charged a run and waits for clients. It returns false
// when the budget cannot afford the entry: the issue is abandoned,
// never committed, and the window stops growing.
func (ss *session) admitLocked(e *entry, v verdict, score float64) bool {
	switch v {
	case pruneIt:
		ss.stat().surrogatePruned.Add(1)
		e.pred, e.pruned, e.complete = score, true, true
		return true
	case keepIt:
		ss.surGate.Committed(score)
		ss.stat().surrogateKept.Add(1)
	}
	if ss.maxRuns > 0 && ss.runs >= ss.maxRuns {
		ss.exhausted = true
		return false
	}
	ss.runs++
	return true
}

// judgeLocked scores one entry against the best configuration the
// session committed to measure. The prune budget caps how many
// entries a per-candidate session may prune: a model that rejects
// everything must degrade to evaluation, not spin the fetch loop.
func (ss *session) judgeLocked(e *entry) (verdict, float64) {
	if ss.surGate == nil {
		return evaluate, 0
	}
	score, ok := ss.surGate.Score(e.pt, e.cfg)
	if !ok {
		// Outside the model's competence: evaluate it for real.
		ss.stat().surrogateFallback.Add(1)
		return evaluate, 0
	}
	if !ss.surGate.Keep([]float64{score})[0] && ss.surPrunes < ss.pruneBudget() {
		ss.surPrunes++
		return pruneIt, score
	}
	return keepIt, score
}

// drainLocked commits completed entries to the strategy in issue
// order, stopping at the first incomplete one. When a sequential or
// Parallel round has committed, every hand-out of it retires: later
// reports for them are stale.
func (ss *session) drainLocked() {
	for len(ss.window) > 0 && ss.window[0].complete {
		head := ss.window[0]
		ss.window = ss.window[1:]
		ss.strategy.Commit(head.pt, head.deliveryValue())
		if ss.async {
			ss.stat().asyncCommitted.Add(1)
		}
	}
	if !ss.async && len(ss.window) == 0 {
		clear(ss.tags)
	}
}

// fetch hands out the configuration the application should use next.
// A shared session hands every fetch the head entry under its
// generation; a distinct one hands out the least-assigned incomplete
// entry under a fresh tag, so concurrent clients receive distinct
// entries until the window is covered and a client that lost its
// assignment to a crash re-fetches and another takes over (a fetch is
// never refused).
func (ss *session) fetch(*proto.Message) *proto.Message {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.lastActive = now
	ss.stat().fetches.Add(1)
	ss.expireLocked(now)
	for {
		ss.fillLocked()
		ss.drainLocked()
		var pick *entry
		for _, e := range ss.window {
			if e.complete {
				continue
			}
			if pick == nil || e.assigned < pick.assigned {
				pick = e
			}
			if ss.shared {
				break
			}
		}
		if pick != nil {
			return ss.handOutLocked(pick, now)
		}
		// Nothing to hand out, so the drained window is empty.
		if ss.async && !ss.exhausted {
			// Nothing is in flight and the strategy still has nothing to
			// say: it is done in every way that matters.
			ss.converged = true
		}
		if ss.converged || ss.exhausted {
			return ss.bestOrCurrentLocked()
		}
		// A sequential or Parallel round was answered without any client
		// (cache hits, prunes, forfeits) and has committed: ask for the
		// next one.
	}
}

func (ss *session) handOutLocked(e *entry, now time.Time) *proto.Message {
	if ss.shared {
		if e.gen == 0 {
			ss.nextTag++
			e.gen = ss.nextTag
			ss.tags[e.gen] = &handout{entry: e, issued: now}
		}
		return &proto.Message{Type: proto.TypeConfig, Values: e.cfg.Map(), Gen: e.gen}
	}
	e.assigned++
	ss.nextTag++
	ss.tags[ss.nextTag] = &handout{entry: e, issued: now}
	return &proto.Message{Type: proto.TypeConfig, Values: e.cfg.Map(), Tag: ss.nextTag}
}

// report matches a report to its entry: by Gen on a shared session
// (Gen 0 means the outstanding configuration), by Tag on a distinct
// one. Stale generations and tags (an expired hand-out, a retired
// entry) and surplus reports are acknowledged and dropped, so a late
// straggler never corrupts the current work.
func (ss *session) report(msg *proto.Message) *proto.Message {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.lastActive = now
	ss.expireLocked(now)
	var h *handout
	if ss.shared {
		gen := msg.Gen
		if gen == 0 && len(ss.window) > 0 {
			gen = ss.window[0].gen
		}
		h = ss.tags[gen]
		if h == nil && msg.Gen == 0 {
			return errorReply("report: no configuration outstanding for session %s", ss.id)
		}
	} else if h = ss.tags[msg.Tag]; h != nil {
		delete(ss.tags, msg.Tag)
	}
	if h == nil || h.entry.complete {
		ss.stat().reportsDroppedStale.Add(1)
		return &proto.Message{Type: proto.TypeOK}
	}
	e := h.entry
	e.count++
	ss.stat().reportsAccepted.Add(1)
	// Sanitize at ingress: NaN compares false with everything and would
	// leave worst at its -Inf sentinel, handing the strategy a best-ever
	// value. A client that measured NaN measured nothing.
	perf := msg.Perf
	if math.IsNaN(perf) {
		perf = penaltyValue
	}
	if perf > e.worst {
		e.worst = perf // the slowest rank gates a parallel application
	}
	if e.count >= ss.reporters {
		e.complete = true
		// Only complete, finite measurements enter the evaluation cache;
		// forfeits never reach this path.
		if ss.cache != nil && !math.IsInf(e.worst, 0) {
			ss.cache.Store(e.pt, e.worst)
		}
		ss.noteMeasuredLocked(e.pt, e.worst)
		ss.drainLocked()
	}
	return &proto.Message{Type: proto.TypeOK}
}

// expireLocked applies the straggler deadline to overdue hand-outs,
// visited in issue order (not map order: the decisions feed the
// strategy and the counters, and must not vary run to run).
//
// A shared entry that has some reports is finalised at once from them
// — the slowest surviving rank stands in for the crashed ones. With no
// reports it is re-issued (same point, same generation, fresh
// deadline) and, past the re-issue limit, forfeited at the penalty
// value.
//
// A distinct hand-out is retired and its entry's assignment count
// decremented, so the least-assigned pick re-issues it naturally; past
// the re-issue limit the entry is forfeited — completed with the
// reports it has, or the penalty value if it has none — so the window
// always drains.
func (ss *session) expireLocked(now time.Time) {
	if ss.reportTimeout <= 0 || len(ss.tags) == 0 {
		return
	}
	tags := make([]int, 0, len(ss.tags))
	for tag := range ss.tags {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	for _, tag := range tags {
		h := ss.tags[tag]
		if now.Sub(h.issued) < ss.reportTimeout {
			continue
		}
		e := h.entry
		if !ss.shared {
			delete(ss.tags, tag)
			if e.complete {
				continue // entry already complete; nothing to redo
			}
			if e.assigned > 0 {
				e.assigned--
			}
		}
		if !ss.shared || e.count == 0 {
			e.expiries++
			if e.expiries <= ss.reissueLimit() {
				h.issued = now // a shared hand-out's deadline restarts
				ss.stat().proposalsReissued.Add(1)
				continue
			}
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
	ss.drainLocked()
}
