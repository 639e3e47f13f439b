// Command perfbench is the repository's end-to-end benchmark. It runs
// a named workload for a fixed time as a sequence of fresh child
// processes — so every plan cache starts cold, as it does for a user
// of repro or htune — checks every child's outputs, and prints the
// medians as one JSON line.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the children alternate between untraced and traced runs;
// the result carries the per-layer metrics of the traced runs, and
// the tracing overhead as traced minus untraced campaign time. Traced
// children write their spans and CPU profiles to --out.
//
// Workloads: petsc-decomp, gs2-pop-sweep, online-mixed. README.md
// lists every metric and the end-to-end metric each layer metric
// should move. run.sh builds the binary from source and runs it.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set of the benchmark. run performs one
// cold run inside a child process and returns the tuned improvement
// in percent.
type workload struct {
	name string
	run  func(e *env) (float64, error)
}

var workloads = []*workload{
	{name: "petsc-decomp", run: petscDecomp},
	{name: "gs2-pop-sweep", run: gs2PopSweep},
	{name: "online-mixed", run: onlineMixed},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// defaultSeed is the seed whose campaign fingerprints are recorded in
// fingerprints.json.
const defaultSeed = 1

//go:embed fingerprints.json
var recordedFingerprints []byte

// minSamples is the fewest children of each kind a run makes, however
// short --seconds is.
const minSamples = 3

// childTimeout bounds one child process.
const childTimeout = 120 * time.Second

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	out := fs.String("out", "", "directory for traced runs' spans and CPU profiles")
	child := fs.Bool("child", false, "run one cold sample in this process (used by the parent)")
	traced := fs.Bool("traced", false, "with -child, trace the sample")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w := lookupWorkload(*name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *child {
		os.Exit(childMain(w, *seed, *traced, *out))
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}
	if err := runParent(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// childRun is one child's sample plus what only the parent can
// measure.
type childRun struct {
	*sample
	setupS float64
}

// runParent runs children until the measurement time is up and
// prints the aggregated result.
func runParent(stdout io.Writer, w *workload, seed int64, dur time.Duration, trace bool, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	var plain, traced []childRun
	deadline := time.Now().Add(dur)
	for i := 0; ; i++ {
		withTrace := trace && i%2 == 1
		cr, err := spawn(exe, w, seed, withTrace, outDir)
		if err != nil {
			return err
		}
		if withTrace {
			traced = append(traced, cr)
		} else {
			plain = append(plain, cr)
		}
		if time.Now().After(deadline) && len(plain) >= minSamples && (!trace || len(traced) >= minSamples) {
			break
		}
	}

	res, err := aggregate(w.name, seed, plain, traced, trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d untraced and %d traced runs\n", w.name, seed, len(plain), len(traced))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// aggregate checks the children's fingerprints and turns their
// samples into the result: medians of the untraced samples' end-to-
// end metrics, or, for a traced run, medians of the traced samples'
// per-layer values, the CPU shares of their summed profiles, and the
// tracing overhead.
func aggregate(name string, seed int64, plain, traced []childRun, trace bool) (*result, error) {
	res := &result{Metrics: make(map[string]metricValue)}
	want := plain[0].Fingerprint
	recorded, err := recordedFingerprint(name)
	if err != nil {
		return nil, err
	}
	for _, cr := range append(append([]childRun(nil), plain...), traced...) {
		res.Attempted += cr.Attempted
		res.Failed += cr.Failed
		for _, f := range cr.Failures {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
		}
		res.Attempted++
		if cr.Fingerprint != want {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: check failed: fingerprint %s differs from the first run's %s\n", cr.Fingerprint, want)
		}
		if seed == defaultSeed {
			res.Attempted++
			if cr.Fingerprint != recorded {
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: check failed: fingerprint %s differs from the recorded %s\n", cr.Fingerprint, recorded)
			}
		}
	}
	res.Correct = res.Failed == 0

	pick := func(runs []childRun, f func(childRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, cr := range runs {
			xs[i] = f(cr)
		}
		return median(xs)
	}
	if !trace {
		values := map[string]float64{
			"setup_s":               pick(plain, func(c childRun) float64 { return c.setupS }),
			"campaign_s":            pick(plain, func(c childRun) float64 { return c.CampaignS }),
			"cpu_s":                 pick(plain, func(c childRun) float64 { return c.CPUS }),
			"tuned_improvement_pct": pick(plain, func(c childRun) float64 { return c.ImprovementPct }),
			"round_p50_us":          pick(plain, func(c childRun) float64 { return c.RoundP50US }),
			"round_p99_us":          pick(plain, func(c childRun) float64 { return c.RoundP99US }),
			"rounds_per_s":          pick(plain, func(c childRun) float64 { return c.RoundsPerS }),
			"peak_rss_mb":           pick(plain, func(c childRun) float64 { return c.PeakRSSMB }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		}
	} else {
		cpu := make(map[string]int64)
		var cpuTotal int64
		for _, cr := range traced {
			for b, ns := range cr.CPUSamples {
				cpu[b] += ns
				cpuTotal += ns
			}
		}
		for _, m := range perLayer() {
			var v float64
			switch {
			case m.Name == "trace.overhead_s":
				v = pick(traced, func(c childRun) float64 { return c.CampaignS }) -
					pick(plain, func(c childRun) float64 { return c.CampaignS })
			case strings.HasPrefix(m.Name, "cpu."):
				b := strings.TrimSuffix(strings.TrimPrefix(m.Name, "cpu."), "_pct")
				if cpuTotal > 0 {
					v = 100 * float64(cpu[b]) / float64(cpuTotal)
				}
			default:
				metric := m.Name
				v = pick(traced, func(c childRun) float64 { return c.Layer[metric] })
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	for metric, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", metric, m.Value)
		}
	}
	return res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// spawn runs one child process to completion and returns its sample.
func spawn(exe string, w *workload, seed int64, traced bool, outDir string) (childRun, error) {
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-traced", "-out", outDir)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s sample
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return childRun{}, fmt.Errorf("child %s: bad sample: %w", strings.Join(args, " "), err)
	}
	return childRun{sample: &s, setupS: float64(s.SetupDoneUnixNS-start.UnixNano()) / 1e9}, nil
}

// recordedFingerprint returns the campaign fingerprint recorded for
// the workload at the default seed.
func recordedFingerprint(name string) (string, error) {
	var fps map[string]string
	if err := json.Unmarshal(recordedFingerprints, &fps); err != nil {
		return "", fmt.Errorf("fingerprints.json: %w", err)
	}
	fp, ok := fps[name]
	if !ok {
		return "", errors.New("fingerprints.json records no fingerprint for " + name)
	}
	return fp, nil
}
