package gs2

import (
	"context"
	"fmt"
	"math"
	"sync"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/simmpi"
	"harmony/internal/space"
)

// Config describes one GS2 run.
type Config struct {
	// Layout is the data-layout string (default "lxyes").
	Layout Layout
	// Negrid is the energy-grid size (paper default 16).
	Negrid int
	// Ntheta is the number of grid points per 2π segment of field
	// line (paper default 26).
	Ntheta int
	// Steps is the number of time steps: 10 for a benchmarking run,
	// 1,000 for a production run.
	Steps int
	// Collisions selects the collision model (collision_model
	// variable): when set, every step pays the velocity-space
	// (l,e)-local phase and its redistributions.
	Collisions bool
}

// DefaultConfig is the paper's default GS2 configuration.
func DefaultConfig() Config {
	return Config{Layout: DefaultLayout, Negrid: 16, Ntheta: 26, Steps: 10}
}

// Dims derives the 5-D extents from the resolution parameters. The
// fixed extents are scaled-down stand-ins for the production grids
// (the real code runs billions of mesh points; see DESIGN.md).
func (c Config) Dims() Dims {
	return Dims{X: c.Ntheta, Y: 32, L: 20, E: c.Negrid, S: 2}
}

// Cost-model constants. elemWeight is the number of sub-points each
// 5-D index cell stands for (the scale-down factor); the per-phase
// constants are flops per sub-point.
const (
	elemWeight = 4000.0
	// nonlinearFlops is the (x,y)-local FFT/advection work.
	nonlinearFlops = 12.0
	// implicitFlops is the along-field implicit solve, done in the
	// home layout.
	implicitFlops = 8.0
	// collisionFlops is the velocity-space collision operator,
	// (l,e)-local.
	collisionFlops = 12.0
	// initStepEquivalents models GS2's start-up (reading geometry,
	// building response matrices) as this many step-equivalents of
	// the per-step work.
	initStepEquivalents = 6.0
	// initFixedSeconds is the resolution-independent part of start-up
	// (reading input, geometry files).
	initFixedSeconds = 2.0
	// fieldSolveDoubles is the per-step field-solve reduction length.
	fieldSolveDoubles = 64
	// fieldSolveFlops is the replicated per-step field-solve work,
	// charged per (x,y) sub-point on every rank: the field equations
	// are solved redundantly from the reduced moments, so this work
	// does not scale with the rank count.
	fieldSolveFlops = 150.0
	// stepOverheadSeconds is the fixed per-step cost of the
	// orchestration GS2 does outside the scalable kernels
	// (diagnostics, time-history output, bookkeeping). It bounds how
	// much resolution cuts can help an already-good layout, which is
	// why the paper's yxles tuning gained only 9.8%.
	stepOverheadSeconds = 0.5
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.Negrid < 2 || c.Ntheta < 2 || c.Steps < 1 {
		return fmt.Errorf("gs2: bad config %+v", c)
	}
	return nil
}

// chunkOf returns the element count rank i owns in a contiguous split
// of n elements.
func chunkOf(n, p, i int) int { return (i+1)*n/p - i*n/p }

// redist is a frozen redistribution plan: per-rank sent/received
// element totals for the pack/unpack charge, and the per-rank
// exchange byte rows at the plan's volume fraction, precomputed dense
// so the steady-state exchange allocates nothing and never touches a
// map.
type redist struct {
	sent, recvd []int
	totalMoved  int
	fraction    float64
	sendBytes   [][]int // dense: sendBytes[src][dst]
}

func newRedist(mat [][]int, fraction float64) *redist {
	p := len(mat)
	r := &redist{sent: make([]int, p), recvd: make([]int, p), fraction: fraction}
	for i := 0; i < p; i++ {
		for j, v := range mat[i] {
			r.sent[i] += v
			r.recvd[j] += v
			r.totalMoved += v
		}
	}
	r.sendBytes = make([][]int, p)
	for i := 0; i < p; i++ {
		row := make([]int, p)
		for dst, elems := range mat[i] {
			if elems > 0 {
				row[dst] = int(float64(elems) * 8 * elemWeight * fraction)
			}
		}
		r.sendBytes[i] = row
	}
	return r
}

// plans holds the frozen redistribution plans of a configuration.
type plans struct {
	toXY, fromXY *redist
	toLE, fromLE *redist
}

// plansKey identifies a frozen plan set: the 5-D extents, the home
// layout, whether the collision transposes exist, and the rank count.
type plansKey struct {
	d    Dims
	l    Layout
	coll bool
	p    int
}

// plansCache memoises the frozen redistribution plans per
// configuration shape; it is the package's only memo, so each move
// matrix is walked once per plan set. Plans are immutable after
// construction.
var plansCache sync.Map // plansKey -> plans

func (c Config) plans(p int) plans {
	key := plansKey{d: c.Dims(), l: c.Layout, coll: c.Collisions, p: p}
	if v, ok := plansCache.Load(key); ok {
		return v.(plans)
	}
	d := c.Dims()
	// Targets preserve the home-relative order of the dimensions they
	// localise, so a layout that already keeps them fastest (yxles
	// and yxels for x,y) moves nothing. Each reverse plan moves the
	// same elements with the two owners swapped, so its matrix is the
	// forward one transposed.
	xy := MoveMatrix(d, c.Layout, c.Layout.front("xy"), p)
	pl := plans{toXY: newRedist(xy, 1), fromXY: newRedist(transpose(xy), 1)}
	if c.Collisions {
		le := MoveMatrix(d, c.Layout, c.Layout.front("le"), p)
		pl.toLE = newRedist(le, collRedistFraction)
		pl.fromLE = newRedist(transpose(le), collRedistFraction)
	}
	if v, loaded := plansCache.LoadOrStore(key, pl); loaded {
		return v.(plans) // keep the first: identical builds
	}
	return pl
}

// transpose returns mat with rows and columns swapped.
func transpose(mat [][]int) [][]int {
	t := make([][]int, len(mat))
	for j := range t {
		t[j] = make([]int, len(mat))
		for i, row := range mat {
			t[j][i] = row[j]
		}
	}
	return t
}

// PlanInfo exposes one frozen redistribution plan to analytic
// predictors (internal/surrogate): per-rank moved-element counts, the
// dense per-pair byte rows, and the volume fraction in flight. The
// slices are views of an immutable cached plan and must not be
// modified.
type PlanInfo struct {
	Sent, Recvd []int
	SendBytes   [][]int
	Fraction    float64
	TotalMoved  int
}

func planInfo(rd *redist) PlanInfo {
	return PlanInfo{Sent: rd.sent, Recvd: rd.recvd, SendBytes: rd.sendBytes,
		Fraction: rd.fraction, TotalMoved: rd.totalMoved}
}

// ExchangePlans returns the redistribution plans one step of the
// configuration performs on p ranks, in execution order: the
// transposes to and from (x,y)-local form, then the collision
// transposes when enabled. The plans come from the same cache the
// simulator uses, so pricing them executes no ranks and builds
// nothing the next real run would not build anyway.
func (c Config) ExchangePlans(p int) []PlanInfo {
	pl := c.plans(p)
	out := []PlanInfo{planInfo(pl.toXY), planInfo(pl.fromXY)}
	if c.Collisions {
		out = append(out, planInfo(pl.toLE), planInfo(pl.fromLE))
	}
	return out
}

// ComputeModel is the closed-form per-rank compute-cost structure of
// a configuration on p ranks, for analytic predictors: the largest
// per-rank chunk in sub-points, the per-sub-point phase costs, and
// the fixed per-step and initialisation costs. It mirrors the
// constants the simulator charges through Compute/Sleep.
type ComputeModel struct {
	// MaxChunkSubpoints is the largest per-rank element count times
	// the sub-point weight of each element: the compute-load gate.
	MaxChunkSubpoints float64
	// Per-sub-point phase costs, in flops.
	NonlinearFlops, ImplicitFlops, CollisionFlops float64
	// FieldSolveFlops is the total replicated field-solve work per
	// step, in flops (charged on every rank).
	FieldSolveFlops float64
	// FieldSolveDoubles is the per-step field-solve reduction length.
	FieldSolveDoubles int
	// PackFlops is the per-sub-point pack/unpack cost on each side of
	// a redistribution transfer.
	PackFlops float64
	// Fixed costs, in seconds and step-equivalents.
	StepOverheadSeconds float64
	InitFixedSeconds    float64
	InitStepEquivalents float64
	// ElemWeight converts plan element counts to sub-points.
	ElemWeight float64
}

// ComputeModel returns the analytic compute model of c on p ranks.
func (c Config) ComputeModel(p int) ComputeModel {
	d := c.Dims()
	n := d.N()
	maxChunk := 0
	for i := 0; i < p; i++ {
		if ch := chunkOf(n, p, i); ch > maxChunk {
			maxChunk = ch
		}
	}
	return ComputeModel{
		MaxChunkSubpoints:   float64(maxChunk) * elemWeight,
		NonlinearFlops:      nonlinearFlops,
		ImplicitFlops:       implicitFlops,
		CollisionFlops:      collisionFlops,
		FieldSolveFlops:     fieldSolveFlops * float64(d.X*d.Y) * elemWeight,
		FieldSolveDoubles:   fieldSolveDoubles,
		PackFlops:           packFlops,
		StepOverheadSeconds: stepOverheadSeconds,
		InitFixedSeconds:    initFixedSeconds,
		InitStepEquivalents: initStepEquivalents,
		ElemWeight:          elemWeight,
	}
}

// collRedistFraction scales the collision-phase redistribution
// volume: the collision operator pipelines its velocity-space
// transposes over the field-line dimension, so only a fraction of the
// distribution function is in flight at once.
const collRedistFraction = 0.12

// Run simulates a GS2 run on the machine and returns the execution
// time in simulated seconds.
//
// Every step performs the same work, so runs longer than three steps
// are simulated for three steps and extrapolated exactly from the
// marginal per-step time; Steps keeps its meaning (a 1,000-step
// production run reports ~100× the marginal step time of a 10-step
// benchmarking run plus the same initialisation).
func Run(m *cluster.Machine, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	p := m.Procs()
	pl := cfg.plans(p)

	const maxSimSteps = 3
	if cfg.Steps <= maxSimSteps {
		return simulate(m, cfg, pl, cfg.Steps)
	}
	tFull, err := simulate(m, cfg, pl, maxSimSteps)
	if err != nil {
		return 0, err
	}
	tLess, err := simulate(m, cfg, pl, maxSimSteps-1)
	if err != nil {
		return 0, err
	}
	perStep := tFull - tLess
	return tFull + float64(cfg.Steps-maxSimSteps)*perStep, nil
}

// simulate runs initialisation plus the given number of steps.
func simulate(m *cluster.Machine, cfg Config, pl plans, steps int) (float64, error) {
	p := m.Procs()
	n := cfg.Dims().N()
	d := cfg.Dims()
	fieldWork := fieldSolveFlops * float64(d.X*d.Y) * elemWeight
	st, err := simmpi.Run(m, p, func(r *simmpi.Rank) {
		id := r.ID()
		chunk := float64(chunkOf(n, p, id))
		// Initialisation: reading inputs plus response-matrix setup,
		// which uses the same transforms and a multiple of the
		// per-step compute.
		r.Sleep(initFixedSeconds)
		redistribute(r, pl.toXY, id)
		r.Compute(chunk * elemWeight * (nonlinearFlops + implicitFlops) * initStepEquivalents)
		redistribute(r, pl.fromXY, id)

		for s := 0; s < steps; s++ {
			// Nonlinear phase: transform to (x,y)-local, compute,
			// transform back.
			redistribute(r, pl.toXY, id)
			r.Compute(chunk * elemWeight * nonlinearFlops)
			redistribute(r, pl.fromXY, id)
			// Implicit along-field solve in the home layout.
			r.Compute(chunk * elemWeight * implicitFlops)
			// Collision operator in (l,e)-local form.
			if cfg.Collisions {
				redistribute(r, pl.toLE, id)
				r.Compute(chunk * elemWeight * collisionFlops)
				redistribute(r, pl.fromLE, id)
			}
			// Field solve: replicated reconstruction from the reduced
			// moments plus a global reduction, then the per-step
			// bookkeeping that does not scale with anything.
			r.Compute(fieldWork)
			r.Allreduce(simmpi.Sum, make([]float64, fieldSolveDoubles))
			r.Sleep(stepOverheadSeconds)
		}
	})
	return st.Time, err
}

// packFlops is the per-sub-point cost of gathering a moved element
// out of (and scattering it back into) the strided 5-D array: a
// memory-bound operation (one strided 8-byte access costs tens of
// nanoseconds, i.e. tens of flop-equivalents), charged on each side
// of the transfer.
const packFlops = 40.0

// redistribute performs one layout transformation: pack, an
// all-to-all whose per-pair volumes come from the frozen plan, and
// unpack. Each moved element carries its elemWeight sub-points of 8
// bytes, scaled by the plan's volume fraction.
func redistribute(r *simmpi.Rank, rd *redist, id int) {
	if rd.totalMoved == 0 {
		return
	}
	r.Compute(float64(rd.sent[id]) * elemWeight * packFlops * rd.fraction)
	r.AlltoallvBytesRow(rd.sendBytes[id])
	r.Compute(float64(rd.recvd[id]) * elemWeight * packFlops * rd.fraction)
}

// ResolutionSpace is the Tables III/IV tuning space: negrid, ntheta,
// and the number of nodes, as identified by the application
// developer. The defaults (16, 26, 32) sit on the lattice, and the
// lower bounds follow the paper's constraint that "all the parameter
// value ranges used for tuning ... will generate acceptable
// simulation resolutions" (the sampled optimum (8,16,32) sits on the
// boundary).
func ResolutionSpace(maxNodes int) *space.Space {
	return space.MustNew(
		space.IntParam("negrid", 8, 32, 2),
		space.IntParam("ntheta", 16, 80, 2),
		space.IntParam("nodes", 2, int64(maxNodes), 1),
	)
}

// ResolutionStart encodes (negrid, ntheta, nodes) as a
// ResolutionSpace point.
func ResolutionStart(sp *space.Space, negrid, ntheta, nodes int) space.Point {
	pt, err := sp.Encode(map[string]string{
		"negrid": fmt.Sprint(negrid),
		"ntheta": fmt.Sprint(ntheta),
		"nodes":  fmt.Sprint(nodes),
	})
	if err != nil {
		panic(err)
	}
	return pt
}

// MachineFor builds the cluster slice a configuration runs on.
type MachineFor func(nodes int) *cluster.Machine

// LinuxCluster returns the paper's Myrinet Linux cluster with the
// given node count and 2 processors per node.
func LinuxCluster(nodes int) *cluster.Machine { return cluster.MyrinetLinux(nodes, 2) }

// ResolutionObjective adapts (negrid, ntheta, nodes) tuning to the
// tuning engine: layout, step count, and collision mode stay fixed
// while resolution and machine size vary.
func ResolutionObjective(mf MachineFor, base Config) core.Objective {
	return func(_ context.Context, cfg space.Config) (float64, error) {
		c := base
		c.Negrid = int(cfg.Int("negrid"))
		c.Ntheta = int(cfg.Int("ntheta"))
		return Run(mf(int(cfg.Int("nodes"))), c)
	}
}

// FidelityError is a resolution-fidelity proxy: a discretisation
// error estimate that grows as the velocity grid (negrid) and the
// field-line grid (ntheta) are coarsened. Units are arbitrary
// "error" units calibrated so the default resolution (16, 26) scores
// 1.0. The paper notes that tuning negrid/ntheta trades resolution
// for speed and that quantified trade-offs belong in the objective
// (Section VII); this proxy quantifies it for the simulator.
func FidelityError(negrid, ntheta int) float64 {
	const (
		refNegrid = 16.0
		refNtheta = 26.0
	)
	e := 0.5*math.Pow(refNegrid/float64(negrid), 1.5) +
		0.5*math.Pow(refNtheta/float64(ntheta), 1.5)
	return e
}

// FidelityObjective adapts FidelityError to the tuning engine over a
// ResolutionSpace configuration.
func FidelityObjective() core.Objective {
	return func(_ context.Context, cfg space.Config) (float64, error) {
		return FidelityError(int(cfg.Int("negrid")), int(cfg.Int("ntheta"))), nil
	}
}
