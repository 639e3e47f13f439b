package server

import (
	"math"
	"testing"
	"time"

	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// TestNaNReportSanitizedShared is the regression test for the
// NaN-poisoning bug on the shared-config path: NaN loses every `>`
// comparison, so an unsanitized NaN report left the aggregate at its
// -Inf sentinel and delivered a best-ever value to the strategy.
func TestNaNReportSanitizedShared(t *testing.T) {
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 21, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	cfg1 := s.dispatch(&proto.Message{Type: proto.TypeFetch, Session: id})
	if r := s.dispatch(&proto.Message{Type: proto.TypeReport, Session: id, Gen: cfg1.Gen, Perf: math.NaN()}); r.Type != proto.TypeOK {
		t.Fatalf("NaN report: %+v", r)
	}
	cfg2 := s.dispatch(&proto.Message{Type: proto.TypeFetch, Session: id})
	if r := s.dispatch(&proto.Message{Type: proto.TypeReport, Session: id, Gen: cfg2.Gen, Perf: 5}); r.Type != proto.TypeOK {
		t.Fatalf("report: %+v", r)
	}
	best := s.dispatch(&proto.Message{Type: proto.TypeBest, Session: id})
	if best.Type != proto.TypeBestReply || best.Perf != 5 {
		t.Fatalf("best = %+v, want the genuine 5: NaN must forfeit, not win", best)
	}
}

// TestNaNReportSanitizedParallel pins the same bug on the fan-out
// path, where `msg.Perf > r.worst[pos]` used to leave a -Inf in the
// round delivered to ReportBatch.
func TestNaNReportSanitizedParallel(t *testing.T) {
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 23, MaxRuns: 8, Parallel: true,
		Space: proto.EncodeSpace(testSpace()),
	})
	poisoned := false
	for i := 0; i < 200; i++ {
		reply := s.dispatch(&proto.Message{Type: proto.TypeFetch, Session: id})
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch %d: %+v", i, reply)
		}
		if reply.Converged {
			break
		}
		perf := bowl(reply.Values)
		if !poisoned {
			poisoned = true
			perf = math.NaN()
		}
		if r := s.dispatch(&proto.Message{Type: proto.TypeReport, Session: id, Tag: reply.Tag, Perf: perf}); r.Type != proto.TypeOK {
			t.Fatalf("report %d: %+v", i, r)
		}
	}
	best := s.dispatch(&proto.Message{Type: proto.TypeBest, Session: id})
	if best.Type != proto.TypeBestReply {
		t.Fatalf("best: %+v", best)
	}
	if math.IsNaN(best.Perf) || math.IsInf(best.Perf, -1) {
		t.Fatalf("best = %v: the NaN report poisoned the search", best.Perf)
	}
}

// scriptedBatch feeds fixed rounds through a parallel session; it
// doubles as the Strategy so sessions can be built directly.
type scriptedBatch struct {
	rounds [][]space.Point
	i      int
	best   space.Point
	bv     float64
	has    bool
}

func (b *scriptedBatch) Name() string { return "scripted-batch" }

func (b *scriptedBatch) Next() (space.Point, bool) { return nil, false }

func (b *scriptedBatch) Report(pt space.Point, v float64) {
	if !b.has || v < b.bv {
		b.best, b.bv, b.has = pt.Clone(), v, true
	}
}

func (b *scriptedBatch) Best() (space.Point, float64, bool) {
	if !b.has {
		return nil, 0, false
	}
	return b.best.Clone(), b.bv, true
}

func (b *scriptedBatch) NextBatch() []space.Point {
	if b.i >= len(b.rounds) {
		return nil
	}
	round := b.rounds[b.i]
	b.i++
	out := make([]space.Point, len(round))
	for i, pt := range round {
		out[i] = pt.Clone()
	}
	return out
}

func (b *scriptedBatch) ReportBatch(pts []space.Point, values []float64) {
	for i, pt := range pts {
		b.Report(pt, values[i])
	}
}

// TestUndecodableProposalForfeited is the regression test for the
// round-wedge bug: the fan-out fetch used to return a decode error
// without issuing a tag, and since the round expiry only walked issued
// tags, the round could never complete or expire — the session was
// wedged forever even with ReportTimeout set. The fix forfeits the
// undecodable position immediately.
func TestUndecodableProposalForfeited(t *testing.T) {
	sp := testSpace()
	bad := space.Point{99, 99} // out of range: Decode fails
	strat := &scriptedBatch{rounds: [][]space.Point{
		{bad, sp.Center()},
		{sp.Clamp(space.Point{1, 1})},
	}}
	ss := newSession("s1", &proto.Message{Parallel: true}, sp, strat, 0)

	// The first fetch must skip the undecodable position and hand out
	// the round's good proposal instead of erroring and wedging.
	r1 := ss.fetch(nil)
	if r1.Type != proto.TypeConfig || r1.Converged {
		t.Fatalf("fetch with undecodable proposal in round: %+v, want a config", r1)
	}
	if got := ss.stat().proposalsForfeited.Load(); got != 1 {
		t.Fatalf("proposalsForfeited = %d after first fetch, want 1", got)
	}
	if rep := ss.report(&proto.Message{Tag: r1.Tag, Perf: 4}); rep.Type != proto.TypeOK {
		t.Fatalf("report: %+v", rep)
	}
	// Round 1 must have retired (forfeit + genuine report): the next
	// fetch pulls round 2.
	r2 := ss.fetch(nil)
	if r2.Type != proto.TypeConfig || r2.Converged {
		t.Fatalf("fetch after round retirement: %+v", r2)
	}
	if rep := ss.report(&proto.Message{Tag: r2.Tag, Perf: 9}); rep.Type != proto.TypeOK {
		t.Fatalf("report 2: %+v", rep)
	}
	if r := ss.fetch(nil); !r.Converged {
		t.Fatalf("fetch after all rounds: %+v, want converged", r)
	}
	if best := ss.best(nil); best.Type != proto.TypeBestReply || best.Perf != 4 {
		t.Fatalf("best = %+v, want 4 (the penalty must not win)", best)
	}
}

// TestFullyUndecodableRoundSkipped: a round of nothing but
// undecodable proposals forfeits wholesale and the fetch falls
// through to the next round in the same call.
func TestFullyUndecodableRoundSkipped(t *testing.T) {
	sp := testSpace()
	bad := space.Point{99, 99}
	strat := &scriptedBatch{rounds: [][]space.Point{
		{bad, bad.Clone()},
		{sp.Center()},
	}}
	ss := newSession("s1", &proto.Message{Parallel: true}, sp, strat, 0)

	r := ss.fetch(nil)
	if r.Type != proto.TypeConfig || r.Converged {
		t.Fatalf("fetch across a fully undecodable round: %+v", r)
	}
	if got := ss.stat().proposalsForfeited.Load(); got != 2 {
		t.Errorf("proposalsForfeited = %d, want both positions of round 1", got)
	}
	if got := ss.stat().roundsCompleted.Load(); got != 1 {
		t.Errorf("roundsCompleted = %d, want the forfeited round delivered", got)
	}
	if rep := ss.report(&proto.Message{Tag: r.Tag, Perf: 2}); rep.Type != proto.TypeOK {
		t.Fatalf("report: %+v", rep)
	}
	if r := ss.fetch(nil); !r.Converged {
		t.Fatalf("fetch after last round: %+v, want converged", r)
	}
}

// TestLeaseSurvivesInFlightEvaluation is the regression test for the
// lease bug: lastActive only advances on message arrival, so a client
// whose single evaluation legitimately exceeds SessionTimeout used to
// lose its session mid-run. An outstanding configuration within its
// straggler deadline now counts as activity.
func TestLeaseSurvivesInFlightEvaluation(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.SessionTimeout = time.Minute
	s.ReportTimeout = 5 * time.Minute // evaluations may take up to 5min
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 31, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	cfg := s.dispatch(&proto.Message{Type: proto.TypeFetch, Session: id})
	if cfg.Type != proto.TypeConfig {
		t.Fatalf("fetch: %+v", cfg)
	}

	// 90s of silence: past the lease, but the evaluation is still
	// inside its straggler window. The session must survive both the
	// eager sweep and the lazy per-shard expiry a message triggers.
	clk.Advance(90 * time.Second)
	if n := s.ExpireNow(); n != 0 {
		t.Fatalf("ExpireNow collected %d sessions mid-evaluation, want 0", n)
	}
	if r := s.dispatch(&proto.Message{Type: proto.TypeReport, Session: id, Gen: cfg.Gen, Perf: 6}); r.Type != proto.TypeOK {
		t.Fatalf("report after long evaluation: %+v (session was collected mid-run?)", r)
	}

	// With nothing in flight the lease governs again: 70s of true idle
	// collects the session.
	clk.Advance(70 * time.Second)
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow collected %d idle sessions, want 1", n)
	}
}

// TestLeaseStillCollectsAbandonedInFlight: the in-flight grace is
// bounded by the straggler deadline — a session whose client vanished
// for good is still collected once the window closes, so the fix
// cannot leak sessions.
func TestLeaseStillCollectsAbandonedInFlight(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.SessionTimeout = time.Minute
	s.ReportTimeout = 5 * time.Minute
	s.MaxReissues = 1
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 33, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	if r := s.dispatch(&proto.Message{Type: proto.TypeFetch, Session: id}); r.Type != proto.TypeConfig {
		t.Fatalf("fetch: %+v", r)
	}
	// Well past pendingSince + ReportTimeout + SessionTimeout: the
	// straggler window closed long ago and nobody came back.
	clk.Advance(7 * time.Minute)
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow collected %d abandoned sessions, want 1", n)
	}
}

// TestSharedLastBudgetedConfigServedToEveryRank is the regression test
// for the last configuration of a budgeted shared session: the budget
// used to be checked before the outstanding configuration was
// re-served, so the second rank's fetch of the final generation was
// answered Converged with an older configuration, and that rank's
// Gen-0 report was then credited to the final one.
func TestSharedLastBudgetedConfigServedToEveryRank(t *testing.T) {
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 1, MaxRuns: 2, Reporters: 2,
		Space: proto.EncodeSpace(testSpace()),
	})
	fetch := func() *proto.Message {
		return s.dispatch(&proto.Message{Type: proto.TypeFetch, Session: id})
	}
	for gen := 1; gen <= 2; gen++ {
		rank0, rank1 := fetch(), fetch()
		if rank0.Type != proto.TypeConfig || rank0.Converged || rank0.Gen != gen {
			t.Fatalf("gen %d: rank 0 fetch %+v", gen, rank0)
		}
		if rank1.Type != proto.TypeConfig || rank1.Converged || rank1.Gen != gen ||
			rank1.Values["x"] != rank0.Values["x"] || rank1.Values["y"] != rank0.Values["y"] {
			t.Fatalf("gen %d: rank 1 fetch %+v, want rank 0's %+v", gen, rank1, rank0)
		}
		for _, r := range []*proto.Message{rank0, rank1} {
			if rep := s.dispatch(&proto.Message{Type: proto.TypeReport, Session: id, Gen: r.Gen, Perf: objective(r.Values)}); rep.Type != proto.TypeOK {
				t.Fatalf("gen %d: report %+v", gen, rep)
			}
		}
	}
	if st := s.Stats(); st.ReportsAccepted != 4 || st.ReportsDroppedStale != 0 {
		t.Fatalf("accepted %d, stale %d: want all 4 reports credited to their generations", st.ReportsAccepted, st.ReportsDroppedStale)
	}
	if r := fetch(); r.Type != proto.TypeConfig || !r.Converged {
		t.Fatalf("fetch past the budget: %+v, want converged", r)
	}
}

// holdingScript is a scriptedStrategy that honours the Strategy
// contract's pending rule: Next re-proposes its outstanding point
// until that point is reported.
type holdingScript struct {
	scriptedStrategy
	pending space.Point
}

func (h *holdingScript) Next() (space.Point, bool) {
	if h.pending == nil {
		pt, ok := h.scriptedStrategy.Next()
		if !ok {
			return nil, false
		}
		h.pending = pt
	}
	return h.pending.Clone(), true
}

func (h *holdingScript) Report(pt space.Point, v float64) {
	h.pending = nil
	h.scriptedStrategy.Report(pt, v)
}

// TestUndecodableProposalForfeitedUncharged pins one rule for every
// dispatch mode: a proposal that cannot be decoded is forfeited at the
// penalty value without being charged a run, and the fetch moves on.
// Parallel and Async sessions used to charge the bad point, so a
// budget of two converged before the third point ran; a sequential
// session charged nothing but answered an error on every fetch while
// its strategy held the bad point pending.
func TestUndecodableProposalForfeitedUncharged(t *testing.T) {
	for _, mode := range []struct {
		name string
		reg  proto.Message
	}{
		{"sequential", proto.Message{MaxRuns: 2}},
		{"parallel", proto.Message{MaxRuns: 2, Parallel: true}},
		{"async", proto.Message{MaxRuns: 2, Async: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sp := testSpace()
			bad := space.Point{99, 99} // out of range: Decode fails
			third := sp.Clamp(space.Point{1, 1})
			var strat search.Strategy = &scriptedBatch{rounds: [][]space.Point{{bad, sp.Center()}, {third}}}
			if !mode.reg.Parallel && !mode.reg.Async {
				strat = &holdingScript{scriptedStrategy: scriptedStrategy{pts: []space.Point{bad, sp.Center(), third}}}
			}
			ss := newSession("s1", &mode.reg, sp, strat, 0)

			r1 := ss.fetch(nil)
			if r1.Type != proto.TypeConfig || r1.Converged {
				t.Fatalf("fetch past the undecodable point: %+v, want the next configuration", r1)
			}
			if got := ss.stat().proposalsForfeited.Load(); got != 1 {
				t.Fatalf("proposalsForfeited = %d, want 1", got)
			}
			if ss.runs != 1 {
				t.Fatalf("runs = %d after one hand-out, want 1: the forfeit must not be charged", ss.runs)
			}
			if rep := ss.report(&proto.Message{Gen: r1.Gen, Tag: r1.Tag, Perf: 4}); rep.Type != proto.TypeOK {
				t.Fatalf("report: %+v", rep)
			}
			r2 := ss.fetch(nil)
			if r2.Type != proto.TypeConfig || r2.Converged || r2.Values["x"] != "1" || r2.Values["y"] != "1" {
				t.Fatalf("second fetch: %+v, want the third point within the budget", r2)
			}
			if rep := ss.report(&proto.Message{Gen: r2.Gen, Tag: r2.Tag, Perf: 9}); rep.Type != proto.TypeOK {
				t.Fatalf("report 2: %+v", rep)
			}
			if ss.runs != 2 {
				t.Fatalf("runs = %d, want the 2 handed-out configurations", ss.runs)
			}
			if r := ss.fetch(nil); !r.Converged {
				t.Fatalf("fetch past the budget: %+v, want converged", r)
			}
			if best := ss.best(nil); best.Type != proto.TypeBestReply || best.Perf != 4 {
				t.Fatalf("best = %+v, want 4 (the penalty must not win)", best)
			}
		})
	}
}
