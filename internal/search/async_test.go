package search

import (
	"testing"

	"harmony/internal/space"
)

// recordingBatch wraps a BatchStrategy and records ReportBatch calls.
type recordingBatch struct {
	BatchStrategy
	reported [][]float64
}

func (r *recordingBatch) ReportBatch(pts []space.Point, values []float64) {
	r.reported = append(r.reported, append([]float64(nil), values...))
	r.BatchStrategy.ReportBatch(pts, values)
}

// TestAsAsyncRoundBuffering verifies the adapter's contract: Ask
// hands out the current round one point at a time, stalls once the
// round is fully issued, and delivers exactly one full-round
// ReportBatch when the last value commits — the same strategy
// interaction core.Tune performs in barrier mode.
func TestAsAsyncRoundBuffering(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 99, 1))
	rec := &recordingBatch{BatchStrategy: NewSystematic(sp, 50)}
	as := AsAsync(Strategy(rec)).(*batchAsync)
	as.bs = rec // route batch calls through the recorder

	var pts []space.Point
	for {
		pt, ok := as.Ask()
		if !ok {
			break
		}
		pts = append(pts, pt)
	}
	if len(pts) != DefaultBatchStride {
		t.Fatalf("first round issued %d points, want the stride %d", len(pts), DefaultBatchStride)
	}
	if as.Done() {
		t.Fatal("adapter done while a round is in flight")
	}
	for i, pt := range pts {
		if len(rec.reported) != 0 {
			t.Fatalf("ReportBatch fired after only %d of %d commits", i, len(pts))
		}
		as.Commit(pt, float64(100+i))
	}
	if len(rec.reported) != 1 || len(rec.reported[0]) != len(pts) {
		t.Fatalf("want one full-round ReportBatch of %d values, got %v", len(pts), rec.reported)
	}
	if rec.reported[0][0] != 100 || rec.reported[0][len(pts)-1] != float64(100+len(pts)-1) {
		t.Fatalf("values delivered out of issue order: %v", rec.reported[0])
	}
	// The next Ask opens a new round.
	if _, ok := as.Ask(); !ok {
		t.Fatal("adapter cannot open the next round after a full commit")
	}
}

// TestAsAsyncNativePassthrough verifies a native AsyncStrategy is
// returned unchanged.
func TestAsAsyncNativePassthrough(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 9, 1))
	e := NewEnsemble(sp, EnsembleOptions{Seed: 1, Budget: 10})
	if AsAsync(e) != AsyncStrategy(e) {
		t.Fatal("AsAsync wrapped a native AsyncStrategy")
	}
}

// TestAsAsyncSpeculatePassthrough verifies the adapter forwards
// Speculate so the pipelined engine can prefetch through it.
func TestAsAsyncSpeculatePassthrough(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("x", 0, 30, 1),
		space.IntParam("y", 0, 30, 1),
	)
	sx := NewSimplex(sp, SimplexOptions{})
	as := AsAsync(Strategy(sx))
	sp1, ok := as.(Speculator)
	if !ok {
		t.Fatal("adapter does not expose Speculator")
	}
	// Drive the init phase: the remaining initial vertices are
	// speculable from the very first Ask.
	if _, ok := as.Ask(); !ok {
		t.Fatal("no first proposal")
	}
	if got := sp1.Speculate(8); len(got) == 0 {
		t.Fatal("no speculation during the initial-simplex phase")
	}
}

// TestSimplexSpeculateInitAndShrink verifies the extended speculation
// windows: during init and shrink the remaining vertices of the phase
// are fully determined and must be offered, and Speculate must not
// change state.
func TestSimplexSpeculateInitAndShrink(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("x", 0, 30, 1),
		space.IntParam("y", 0, 30, 1),
		space.IntParam("z", 0, 30, 1),
	)
	sx := NewSimplex(sp, SimplexOptions{})
	pt, ok := sx.Next()
	if !ok {
		t.Fatal("no first proposal")
	}
	spec := sx.Speculate(8)
	if len(spec) != sp.Dims() {
		t.Fatalf("init speculation offered %d points, want the %d remaining vertices", len(spec), sp.Dims())
	}
	again, _ := sx.Next()
	if !pt.Equal(again) {
		t.Fatal("Speculate changed the pending proposal")
	}
	// The speculated points must be exactly the upcoming proposals.
	for i := 0; ; i++ {
		sx.Report(pt, float64(10-i))
		next, ok := sx.Next()
		if !ok || i+1 > sp.Dims() {
			break
		}
		if i < len(spec) && !next.Equal(spec[i]) {
			t.Fatalf("init proposal %d is %v, speculation promised %v", i+1, next, spec[i])
		}
		pt = next
	}
}
