package gs2

import (
	"slices"
	"testing"
	"testing/quick"

	"harmony/internal/cluster"
)

func TestMoveMatrixRoundTripSymmetry(t *testing.T) {
	// The volume moved A->B equals the volume moved B->A: the inverse
	// transform of a redistribution moves the same elements back.
	d := Dims{X: 11, Y: 8, L: 5, E: 6, S: 2}
	for _, p := range []int{3, 8, 16} {
		ab := MovedElements(MoveMatrix(d, "lxyes", "xyles", p))
		ba := MovedElements(MoveMatrix(d, "xyles", "lxyes", p))
		if ab != ba {
			t.Errorf("p=%d: forward moves %d, backward moves %d", p, ab, ba)
		}
	}
}

func TestMoveMatrixTransposeProperty(t *testing.T) {
	// mat2 (B->A) is the transpose of mat1 (A->B): what rank i sends
	// to j going out, j sends back to i coming home.
	d := Dims{X: 7, Y: 6, L: 4, E: 4, S: 2}
	p := 6
	fwd := MoveMatrix(d, "lxyes", "lexys", p)
	bwd := MoveMatrix(d, "lexys", "lxyes", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if fwd[i][j] != bwd[j][i] {
				t.Fatalf("fwd[%d][%d]=%d != bwd[%d][%d]=%d", i, j, fwd[i][j], j, i, bwd[j][i])
			}
		}
	}
}

func TestMoveMatrixSinglingRank(t *testing.T) {
	d := DefaultConfig().Dims()
	mat := MoveMatrix(d, "lxyes", "xyles", 1)
	if MovedElements(mat) != 0 {
		t.Error("one rank owns everything; nothing should move")
	}
}

func TestFrontPreservesPermutation(t *testing.T) {
	f := func(choice uint8) bool {
		layouts := Layouts()
		l := layouts[int(choice)%len(layouts)]
		for _, dims := range []string{"xy", "le", "s", "xyles"} {
			if err := l.front(dims).Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrontIdempotent(t *testing.T) {
	for _, l := range Layouts() {
		once := l.front("xy")
		twice := once.front("xy")
		if once != twice {
			t.Errorf("%s: front not idempotent: %s vs %s", l, once, twice)
		}
	}
}

func TestPlansReverseByTransposition(t *testing.T) {
	// The reverse plans are built by transposing the forward move
	// matrix; they must equal a fresh walk of the reverse
	// redistribution, and a second build must hit the plan cache. At
	// the default resolution every (x,y) move matrix is symmetric, so
	// a second resolution checks the transposition itself.
	same := func(a, b *redist) bool {
		return a.totalMoved == b.totalMoved && a.fraction == b.fraction &&
			slices.Equal(a.sent, b.sent) && slices.Equal(a.recvd, b.recvd) &&
			matricesEqual(a.sendBytes, b.sendBytes)
	}
	for _, res := range [][2]int{{16, 26}, {10, 22}} {
		for _, l := range Layouts() {
			for _, coll := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Negrid, cfg.Ntheta = res[0], res[1]
				cfg.Layout, cfg.Collisions = l, coll
				d := cfg.Dims()
				for _, p := range []int{1, 3, 7, 16, 128} {
					pl := cfg.plans(p)
					if want := newRedist(MoveMatrix(d, l.front("xy"), l, p), 1); !same(pl.fromXY, want) {
						t.Errorf("%v %s coll=%v p=%d: fromXY differs from the reverse walk", res, l, coll, p)
					}
					if coll {
						want := newRedist(MoveMatrix(d, l.front("le"), l, p), collRedistFraction)
						if !same(pl.fromLE, want) {
							t.Errorf("%v %s p=%d: fromLE differs from the reverse walk", res, l, p)
						}
					}
					again := cfg.plans(p)
					if again.toXY != pl.toXY || again.fromXY != pl.fromXY ||
						again.toLE != pl.toLE || again.fromLE != pl.fromLE {
						t.Errorf("%v %s coll=%v p=%d: second plans call rebuilt the plans", res, l, coll, p)
					}
				}
			}
		}
	}
}

func TestCollisionModeAddsCost(t *testing.T) {
	// Collision cost must be visible on every layout, and smaller for
	// layouts needing less velocity-space movement.
	m := LinuxCluster(16)
	for _, l := range Layouts() {
		cfg := DefaultConfig()
		cfg.Layout = l
		off, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Collisions = true
		on, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if on <= off {
			t.Errorf("%s: collisions should cost extra (%v vs %v)", l, on, off)
		}
	}
}

func TestLayoutsDifferentiateWithCollisions(t *testing.T) {
	// With collisions, yxles and yxels transform to different
	// (l,e)-front targets, so at least some environments separate
	// them. Without collisions they are identical by construction.
	m := cluster.Seaborg(16, 8)
	timeFor := func(l Layout, coll bool) float64 {
		cfg := DefaultConfig()
		cfg.Layout = l
		cfg.Collisions = coll
		secs, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	if a, b := timeFor("yxles", false), timeFor("yxels", false); a != b {
		t.Errorf("without collisions yxles (%v) and yxels (%v) should tie", a, b)
	}
	la := Layout("yxles").front("le")
	lb := Layout("yxels").front("le")
	if la == lb {
		t.Fatalf("le-front targets should differ: %s vs %s", la, lb)
	}
}
