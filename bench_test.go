// Benchmarks regenerating each table and figure of the paper at
// reduced scale (the full-scale regeneration is cmd/repro). One
// benchmark iteration = one complete tuning campaign (or one
// full sampling pass), so ns/op measures the cost of reproducing the
// experiment, and the reported custom metrics carry the experiment's
// headline result.
package harmony_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"harmony"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
	"harmony/internal/search"
	"harmony/internal/simmpi"
	"harmony/internal/space"
	"harmony/internal/sparse"
	"harmony/internal/surrogate"
	"harmony/internal/trace"
)

// reportImprovement attaches the experiment's headline number to the
// benchmark output.
func reportImprovement(b *testing.B, def, tuned float64) {
	b.Helper()
	if def > 0 {
		b.ReportMetric(100*(def-tuned)/def, "%improvement")
	}
}

// BenchmarkFig2PETScDecompositionSmall tunes the 4-partition SLES
// decomposition of Fig. 2(b).
func BenchmarkFig2PETScDecompositionSmall(b *testing.B) {
	app := petscsim.NewSLESApp(600, 4, 3, 60, 11)
	m := cluster.Seaborg(4, 1)
	def, err := app.Run(m, app.DefaultPartition())
	if err != nil {
		b.Fatal(err)
	}
	var tuned float64
	for i := 0; i < b.N; i++ {
		sp := app.Space()
		res, err := core.Tune(context.Background(), sp,
			search.NewSimplex(sp, search.SimplexOptions{Start: app.EvenPoint(), Adaptive: true, Restarts: 4}),
			app.Objective(m), core.Options{MaxRuns: 50})
		if err != nil {
			b.Fatal(err)
		}
		tuned = res.BestValue
	}
	reportImprovement(b, def, tuned)
}

// BenchmarkFig2PETScDecompositionLarge tunes a reduced version of the
// 21,025×21,025, 32-rank decomposition (Section IV text, 18%).
func BenchmarkFig2PETScDecompositionLarge(b *testing.B) {
	app := petscsim.NewBandSLESApp(6000, 16, 4, 120, 2)
	m := cluster.Seaborg(16, 1)
	def, err := app.Run(m, app.DefaultPartition())
	if err != nil {
		b.Fatal(err)
	}
	var tuned float64
	for i := 0; i < b.N; i++ {
		sp := app.Space()
		res, err := core.Tune(context.Background(), sp,
			search.NewSimplex(sp, search.SimplexOptions{
				Start: app.EvenPoint(), StepFraction: 0.2, Adaptive: true, Restarts: 8}),
			app.Objective(m), core.Options{MaxRuns: 80})
		if err != nil {
			b.Fatal(err)
		}
		tuned = res.BestValue
	}
	reportImprovement(b, def, tuned)
}

// BenchmarkFig3ComputationDistribution tunes the SNES grid
// distribution on the heterogeneous lab machine (Fig. 3(b)).
func BenchmarkFig3ComputationDistribution(b *testing.B) {
	app := petscsim.NewCavityApp(40, 40, 2, 2)
	m := cluster.HeterogeneousLab()
	xb, yb := app.DefaultBounds()
	def, err := app.Run(m, xb, yb)
	if err != nil {
		b.Fatal(err)
	}
	var tuned float64
	for i := 0; i < b.N; i++ {
		sp := app.Space()
		res, err := core.Tune(context.Background(), sp,
			search.NewSimplex(sp, search.SimplexOptions{}),
			app.Objective(m), core.Options{MaxRuns: 30})
		if err != nil {
			b.Fatal(err)
		}
		tuned = res.BestValue
	}
	reportImprovement(b, def, tuned)
}

// BenchmarkFig4POPBlockSize tunes POP block sizes on one topology of
// the reduced grid.
func BenchmarkFig4POPBlockSize(b *testing.B) {
	cfg := pop.DefaultConfig(720, 480)
	cfg.Steps, cfg.BarotropicIters = 2, 4
	m := cluster.Seaborg(8, 4)
	def, err := pop.Run(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tuned float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := pop.BlockSpace()
		res, err := core.Tune(context.Background(), sp,
			search.NewSimplex(sp, search.SimplexOptions{Start: pop.BlockStart(cfg.BX, cfg.BY)}),
			pop.BlockObjective(m, cfg), core.Options{MaxRuns: 20})
		if err != nil {
			b.Fatal(err)
		}
		tuned = res.BestValue
	}
	reportImprovement(b, def, tuned)
}

// BenchmarkTable1POPParameterSweep runs the coordinate-descent
// namelist sweep behind Tables I and II.
func BenchmarkTable1POPParameterSweep(b *testing.B) {
	m := cluster.Hockney(4, 4)
	cfg := pop.DefaultConfig(360, 240)
	cfg.BX, cfg.BY = 45, 60
	cfg.Steps, cfg.BarotropicIters = 2, 4
	def, err := pop.Run(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tuned float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := pop.NamelistSpace()
		res, err := core.Tune(context.Background(), sp,
			search.NewCoordinate(sp, search.CoordinateOptions{Start: pop.NamelistStart(), MaxPasses: 1}),
			pop.NamelistObjective(m, cfg), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tuned = res.BestValue
	}
	reportImprovement(b, def, tuned)
}

// BenchmarkFig5GS2Layout measures the layout comparison of Fig. 5 on
// one environment.
func BenchmarkFig5GS2Layout(b *testing.B) {
	m := cluster.Seaborg(8, 16)
	var lx, yx float64
	for i := 0; i < b.N; i++ {
		for _, l := range []gs2.Layout{"lxyes", "yxles"} {
			cfg := gs2.DefaultConfig()
			cfg.Layout = l
			secs, err := gs2.Run(m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if l == "lxyes" {
				lx = secs
			} else {
				yx = secs
			}
		}
	}
	if yx > 0 {
		b.ReportMetric(lx/yx, "layout-speedup")
	}
}

// BenchmarkTable3GS2Benchmark tunes (negrid, ntheta, nodes) for a
// benchmarking run.
func BenchmarkTable3GS2Benchmark(b *testing.B) {
	benchGS2Tuning(b, 10)
}

// BenchmarkTable4GS2Production tunes the same space for production
// runs (extrapolated 1,000 steps).
func BenchmarkTable4GS2Production(b *testing.B) {
	benchGS2Tuning(b, 1000)
}

func benchGS2Tuning(b *testing.B, steps int) {
	b.Helper()
	base := gs2.DefaultConfig()
	base.Steps = steps
	def, err := gs2.Run(gs2.LinuxCluster(32), base)
	if err != nil {
		b.Fatal(err)
	}
	var tuned float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := gs2.ResolutionSpace(64)
		res, err := core.Tune(context.Background(), sp,
			search.NewSimplex(sp, search.SimplexOptions{
				Start: gs2.ResolutionStart(sp, 16, 26, 32), StepFraction: 0.5, Restarts: 12}),
			gs2.ResolutionObjective(gs2.LinuxCluster, base), core.Options{MaxRuns: 35})
		if err != nil {
			b.Fatal(err)
		}
		tuned = res.BestValue
	}
	reportImprovement(b, def, tuned)
}

// BenchmarkFig6GS2Distribution samples the GS2 configuration space
// systematically, as in Fig. 6.
func BenchmarkFig6GS2Distribution(b *testing.B) {
	base := gs2.DefaultConfig()
	base.Steps = 1000
	var frac float64
	for i := 0; i < b.N; i++ {
		sp := gs2.ResolutionSpace(32)
		sys := search.NewSystematic(sp, 100)
		_, err := core.Tune(context.Background(), sp, sys,
			gs2.ResolutionObjective(gs2.LinuxCluster, base), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sum := trace.Summarize(sys.Values)
		frac = trace.FractionBelow(sys.Values, sum.Min*1.6)
	}
	b.ReportMetric(100*frac, "%within-1.6x-of-best")
}

// BenchmarkTuneParallel measures the wall-clock benefit of several
// engine workers on a PRO session against the Fig. 2
// PETSc decomposition objective. Each evaluation pays a real-time
// job-launch latency on top of the simulated execution — the re-run
// and warm-up costs the paper charges to tuning time — and parallel
// workers overlap those launches. Accounting (charged runs, best
// value) is identical at every worker count; compare ns/op across the
// sub-benchmarks for the speedup.
func BenchmarkTuneParallel(b *testing.B) {
	app := petscsim.NewSLESApp(600, 4, 3, 60, 11)
	m := cluster.Seaborg(4, 1)
	const launch = 10 * time.Millisecond
	base := app.Objective(m)
	obj := func(ctx context.Context, cfg space.Config) (float64, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(launch):
		}
		return base(ctx, cfg)
	}
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	var runs1 int
	var best1 float64
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				sp := app.Space()
				var err error
				res, err = core.Tune(context.Background(), sp,
					search.NewPRO(sp, search.PROOptions{Seed: 11}),
					obj, core.Options{MaxRuns: 50, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			if workers == 1 {
				runs1, best1 = res.Runs, res.BestValue
			} else if res.Runs != runs1 || res.BestValue > best1 {
				b.Fatalf("workers=%d: runs=%d best=%v, sequential runs=%d best=%v",
					workers, res.Runs, res.BestValue, runs1, best1)
			}
			b.ReportMetric(float64(res.Runs), "runs")
		})
	}
}

// --- Component micro-benchmarks ---

// BenchmarkSimplexProposals measures the raw proposal rate of the
// tuning kernel on a cheap objective.
func BenchmarkSimplexProposals(b *testing.B) {
	sp := space.MustNew(
		space.IntParam("x", 0, 1000, 1),
		space.IntParam("y", 0, 1000, 1),
		space.IntParam("z", 0, 1000, 1),
	)
	s := search.NewSimplex(sp, search.SimplexOptions{Restarts: 1 << 30})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, ok := s.Next()
		if !ok {
			b.Fatal("simplex stopped despite unlimited restarts")
		}
		d0 := float64(pt[0] - 700)
		d1 := float64(pt[1] - 123)
		d2 := float64(pt[2] - 400)
		s.Report(pt, d0*d0+d1*d1+d2*d2)
	}
}

// BenchmarkSimMPIPingPong measures one message round trip between two
// ranks: the tightest Send/Recv dependency chain, where every receive
// forces a scheduler handoff. The payload is handed back and forth
// with SendOwned, so the steady state allocates nothing.
func BenchmarkSimMPIPingPong(b *testing.B) {
	m := cluster.Seaborg(1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := simmpi.Run(m, 2, func(r *simmpi.Rank) {
		buf := []float64{1}
		for i := 0; i < b.N; i++ {
			if r.ID() == 0 {
				r.SendOwned(1, 0, buf)
				buf = r.Recv(1, 1)
			} else {
				buf = r.Recv(0, 0)
				r.SendOwned(0, 1, buf)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimMPIContextSwitch passes a token around a ring: a deep
// Send/Recv chain where every rank blocks on its predecessor, so one
// lap costs about one scheduler handoff per rank. The per-op number
// is the raw cost of parking one rank and resuming the next.
func BenchmarkSimMPIContextSwitch(b *testing.B) {
	for _, n := range []int{32, 128, 480} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			m := cluster.Seaborg((n+15)/16, 16)
			b.ReportAllocs()
			b.ResetTimer()
			_, err := simmpi.Run(m, n, func(r *simmpi.Rank) {
				next := (r.ID() + 1) % r.Size()
				prev := (r.ID() + r.Size() - 1) % r.Size()
				for i := 0; i < b.N; i++ {
					if r.ID() == 0 {
						r.SendBytes(next, 0, 8)
						r.Recv(prev, 0)
					} else {
						r.Recv(prev, 0)
						r.SendBytes(next, 0, 8)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSimMPIRunOverhead measures a whole Run of a trivial
// program on a pooled steady-state world: goroutine spawn, schedule,
// and stats assembly — the fixed cost every evaluation pays before
// any simulated work happens.
func BenchmarkSimMPIRunOverhead(b *testing.B) {
	m := cluster.Seaborg(8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simmpi.Run(m, 32, func(r *simmpi.Rank) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimMPIAllreduce measures the virtual-time allreduce.
func BenchmarkSimMPIAllreduce(b *testing.B) {
	m := cluster.Seaborg(4, 8)
	b.ResetTimer()
	_, err := simmpi.Run(m, 32, func(r *simmpi.Rank) {
		for i := 0; i < b.N; i++ {
			r.Allreduce1(simmpi.Sum, float64(r.ID()))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDistMatVec measures one distributed sparse matrix-vector
// product, simulation costs included.
func BenchmarkDistMatVec(b *testing.B) {
	a := sparse.Poisson2D(100, 100)
	part := sparse.EvenPartition(a.N, 8)
	dm, err := sparse.NewDistMatrix(a, part)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i % 17)
	}
	m := cluster.Seaborg(8, 1)
	b.ResetTimer()
	_, err = simmpi.Run(m, 8, func(r *simmpi.Rank) {
		xl := dm.Scatter(r.ID(), x)
		for i := 0; i < b.N; i++ {
			dm.MatVec(r, 7, xl)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGS2MoveMatrix measures the redistribution-plan
// computation: the (x,y)-local transpose of the default layout and
// the collision transpose of yxels, each at 4, 64 and 128 ranks.
func BenchmarkGS2MoveMatrix(b *testing.B) {
	d := gs2.DefaultConfig().Dims()
	for _, c := range []struct{ home, target gs2.Layout }{
		{"lxyes", "xyles"}, // lxyes.front("xy")
		{"yxels", "elyxs"}, // yxels.front("le")
	} {
		for _, p := range []int{4, 64, 128} {
			b.Run(fmt.Sprintf("%s-%s/p=%d", c.home, c.target, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gs2.MoveMatrix(d, c.home, c.target, p)
				}
			})
		}
	}
}

// BenchmarkOnlineProtocol measures a fetch/report round trip through
// the TCP server.
func BenchmarkOnlineProtocol(b *testing.B) {
	srv := harmony.NewServer()
	srv.Logf = func(string, ...any) {}
	go srv.ListenAndServe("127.0.0.1:0")
	defer srv.Close()
	for srv.Addr() == nil {
	}
	c, err := harmony.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Register(harmony.Registration{
		App:   "bench",
		Space: harmony.MustNewSpace(harmony.IntParam("x", 0, 1000, 1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			b.Fatal(err)
		}
		if converged {
			continue
		}
		_ = values
		if err := sess.Report(float64(i % 100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPROProposals measures the raw proposal rate of the PRO
// population search.
func BenchmarkPROProposals(b *testing.B) {
	sp := space.MustNew(
		space.IntParam("x", 0, 1000, 1),
		space.IntParam("y", 0, 1000, 1),
		space.IntParam("z", 0, 1000, 1),
	)
	s := search.NewPRO(sp, search.PROOptions{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, ok := s.Next()
		if !ok {
			b.StopTimer()
			s = search.NewPRO(sp, search.PROOptions{Seed: int64(i)})
			b.StartTimer()
			continue
		}
		d0 := float64(pt[0] - 700)
		d1 := float64(pt[1] - 123)
		d2 := float64(pt[2] - 400)
		s.Report(pt, d0*d0+d1*d1+d2*d2)
	}
}

// BenchmarkDistMatVecWorkspace is BenchmarkDistMatVec through a held
// workspace: steady-state operator application as the solvers drive
// it. The allocation report is the tentpole's headline — 0 allocs/op
// once the workspace and the world's payload free lists are warm.
func BenchmarkDistMatVecWorkspace(b *testing.B) {
	a := sparse.Poisson2D(100, 100)
	part := sparse.EvenPartition(a.N, 8)
	dm, err := sparse.NewDistMatrix(a, part)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i % 17)
	}
	m := cluster.Seaborg(8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	_, err = simmpi.Run(m, 8, func(r *simmpi.Rank) {
		ws := dm.AcquireWorkspace(r.ID())
		defer dm.ReleaseWorkspace(r.ID(), ws)
		xl := dm.Scatter(r.ID(), x)
		for i := 0; i < b.N; i++ {
			dm.MatVecInto(ws, r, 7, xl)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCampaignThroughput measures end-to-end campaign throughput
// in evaluated configurations per second at several worker counts:
// the number the whole PR optimises for, since a tuning session's
// real-time cost is (configs needed) / (configs per second). Two
// campaign shapes cover the two hot paths: the Fig. 2 PETSc
// decomposition (sparse MatVec dominated, PRO search so workers get
// parallel proposal batches) and the Table 3 GS2 resolution sweep,
// whose sequential simplex is barrier mode's worst case.
//
// Each campaign runs in both engine modes. engine=round is barrier
// mode (Options.Async off); engine=pipeline is Async mode, with the
// Table 3 campaign searched by the bandit ensemble — the strategy
// built to keep the candidate queue full — instead of the one-point-
// in-flight simplex. cmd/benchjson pairs the round and pipeline
// numbers per campaign when it assembles the CI artifact. The
// per-run worker-occupancy and queue-starvation counters ride along
// as extra metrics.
func BenchmarkCampaignThroughput(b *testing.B) {
	type campaign struct {
		name string
		run  func() (*core.Result, error)
	}
	fig2 := func(workers int, async bool) func() (*core.Result, error) {
		app := petscsim.NewSLESApp(600, 4, 3, 60, 11)
		m := cluster.Seaborg(4, 1)
		return func() (*core.Result, error) {
			sp := app.Space()
			return core.Tune(context.Background(), sp,
				search.NewPRO(sp, search.PROOptions{Seed: 11}),
				app.Objective(m), core.Options{MaxRuns: 40, Workers: workers, Async: async})
		}
	}
	table3 := func(workers int, async bool) func() (*core.Result, error) {
		base := gs2.DefaultConfig()
		base.Steps = 10
		return func() (*core.Result, error) {
			sp := gs2.ResolutionSpace(64)
			var strat search.Strategy
			if async {
				strat = search.NewEnsemble(sp, search.EnsembleOptions{Seed: 11, Budget: 35})
			} else {
				strat = search.NewSimplex(sp, search.SimplexOptions{
					Start: gs2.ResolutionStart(sp, 16, 26, 32), StepFraction: 0.5, Restarts: 12})
			}
			return core.Tune(context.Background(), sp, strat,
				gs2.ResolutionObjective(gs2.LinuxCluster, base),
				core.Options{MaxRuns: 35, Workers: workers, Async: async})
		}
	}
	engines := []struct {
		name  string
		async bool
	}{{"round", false}, {"pipeline", true}}
	for _, workers := range []int{1, 4, 8} {
		for _, eng := range engines {
			for _, c := range []campaign{
				{name: "fig2", run: fig2(workers, eng.async)},
				{name: "table3", run: table3(workers, eng.async)},
			} {
				c := c
				b.Run(fmt.Sprintf("%s/engine=%s/workers=%d", c.name, eng.name, workers), func(b *testing.B) {
					configs := 0
					var res *core.Result
					for i := 0; i < b.N; i++ {
						var err error
						res, err = c.run()
						if err != nil {
							b.Fatal(err)
						}
						configs += res.Runs
					}
					b.ReportMetric(float64(configs)/b.Elapsed().Seconds(), "configs/sec")
					b.ReportMetric(100*res.WorkerOccupancy, "occupancy-pct")
					b.ReportMetric(float64(res.QueueStarved), "starved-refills")
				})
			}
		}
	}
}

// BenchmarkSurrogateCampaign measures what the surrogate layer buys:
// the same candidate stream tuned with and without model-guided
// pruning, on the two campaigns where evaluations are the cost. The
// fig2-large campaign screens a 100-candidate random pool of 16-rank
// band-matrix decompositions — the Section IV workload whose MatVec
// made it the motivation for this layer — with the SLES LogGP
// predictor at an aggressive keep fraction; the table3 campaign is
// the GS2 resolution simplex with the registry defaults. The
// surrogate=on sub-benchmarks report sim-runs (simulated evaluations
// actually paid for) and evals-avoided-x (the paper-facing savings
// ratio), and fail outright if the pruned campaign's best is worse
// than the full campaign's: the layer must save evaluations, not
// quality. Compare ns/op between off and on for the wall-clock
// speedup.
func BenchmarkSurrogateCampaign(b *testing.B) {
	type campaign struct {
		name string
		sur  *core.SurrogateOptions
		run  func(sur *core.SurrogateOptions) (*core.Result, error)
	}
	fig2App := petscsim.NewBandSLESApp(6000, 16, 4, 120, 2)
	fig2M := cluster.Seaborg(16, 1)
	table3Base := gs2.DefaultConfig()
	table3Base.Steps = 10
	campaigns := []campaign{
		{
			name: "fig2-large",
			sur: &core.SurrogateOptions{
				Model: surrogate.NewSLES(fig2App, fig2M), Keep: 0.1, Tolerance: 0.02},
			run: func(sur *core.SurrogateOptions) (*core.Result, error) {
				sp := fig2App.Space()
				return core.Tune(context.Background(), sp,
					search.NewRandom(sp, 11, 100),
					fig2App.Objective(fig2M), core.Options{Surrogate: sur})
			},
		},
		{
			name: "table3",
			sur:  &core.SurrogateOptions{Model: surrogate.For("table3-gs2")},
			run: func(sur *core.SurrogateOptions) (*core.Result, error) {
				sp := gs2.ResolutionSpace(64)
				return core.Tune(context.Background(), sp,
					search.NewSimplex(sp, search.SimplexOptions{
						Start: gs2.ResolutionStart(sp, 16, 26, 32), StepFraction: 0.5, Restarts: 12}),
					gs2.ResolutionObjective(gs2.LinuxCluster, table3Base),
					core.Options{MaxProposals: 200, Surrogate: sur})
			},
		},
	}
	for _, c := range campaigns {
		c := c
		baseline, err := c.run(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/surrogate=off", func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				if res, err = c.run(nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Runs), "sim-runs")
		})
		b.Run(c.name+"/surrogate=on", func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				if res, err = c.run(c.sur); err != nil {
					b.Fatal(err)
				}
			}
			if res.BestValue > baseline.BestValue {
				b.Fatalf("surrogate lost quality: best %v, full campaign %v",
					res.BestValue, baseline.BestValue)
			}
			b.ReportMetric(float64(res.Runs), "sim-runs")
			b.ReportMetric(float64(res.SurrogatePruned), "pruned")
			b.ReportMetric(float64(baseline.Runs)/float64(res.Runs), "evals-avoided-x")
		})
	}
}
