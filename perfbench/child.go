package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is what one child process reports: one cold run of a
// workload. The parent aggregates many samples into medians.
type sample struct {
	// SetupDoneUnixNS is the wall clock at the workload's first
	// tuning call or first fetch; the parent subtracts its own clock
	// from just before it started the process to get setup_s.
	SetupDoneUnixNS int64   `json:"setup_done_unix_ns"`
	CampaignS       float64 `json:"campaign_s"`
	CPUS            float64 `json:"cpu_s"`
	ImprovementPct  float64 `json:"tuned_improvement_pct"`
	RoundP50US      float64 `json:"round_p50_us"`
	RoundP99US      float64 `json:"round_p99_us"`
	RoundsPerS      float64 `json:"rounds_per_s"`
	PeakRSSMB       float64 `json:"peak_rss_mb"`
	Attempted       int     `json:"attempted"`
	Failed          int     `json:"failed"`
	// Failures describes each failed check, for the parent's stderr.
	Failures    []string `json:"failures,omitempty"`
	Fingerprint string   `json:"fingerprint"`
	// Layer holds the traced run's per-layer values (nil untraced).
	Layer map[string]float64 `json:"layer,omitempty"`
	// CPUSamples holds CPU-profile nanoseconds per attribution
	// bucket; the parent sums them over traced children.
	CPUSamples map[string]int64 `json:"cpu_samples,omitempty"`
}

// env is the state a workload runs against inside one child.
type env struct {
	seed int64
	tiny bool
	tr   *tracer // nil in the untraced run

	rounds latencies // end-to-end round latencies

	setupDone, done time.Time
	cpuAtSetup      float64
	cpuS            float64

	mu    sync.Mutex // guards out's check counts: clients check concurrently
	out   *sample
	fp    hash.Hash
	layer map[string]float64
}

// markSetup ends set-up: the workload is about to make its first
// tuning call or first fetch.
func (e *env) markSetup() {
	e.setupDone = time.Now()
	e.cpuAtSetup = processCPU()
}

// markDone ends the timed part; checks and traced extras follow.
func (e *env) markDone() {
	e.done = time.Now()
	e.cpuS = processCPU() - e.cpuAtSetup
}

// check counts one checked operation and records it as failed unless
// ok holds.
func (e *env) check(ok bool, format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.out.Attempted++
	if !ok {
		e.out.Failed++
		e.out.Failures = append(e.out.Failures, fmt.Sprintf(format, args...))
	}
}

// fingerprint folds values into the run's campaign fingerprint.
func (e *env) fingerprint(parts ...any) {
	for _, p := range parts {
		switch v := p.(type) {
		case float64:
			fmt.Fprintf(e.fp, "%x;", math.Float64bits(v))
		default:
			fmt.Fprintf(e.fp, "%v;", v)
		}
	}
	e.fp.Write([]byte{'\n'})
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runChild performs one cold run of the workload in this process and
// returns its sample. When traced, it also profiles the run, writes
// the spans and the profile into outDir, and fills the per-layer
// values.
func runChild(w *workload, seed int64, traced, tiny bool, outDir string) (*sample, error) {
	t0 := time.Now()
	e := &env{seed: seed, tiny: tiny, out: &sample{}, fp: sha256.New()}
	var prof bytes.Buffer
	if traced {
		e.tr = newTracer(t0)
		e.layer = make(map[string]float64)
		for _, m := range perLayer() {
			e.layer[m.Name] = 0
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start profile: %w", err)
		}
	}
	improvement, err := w.run(e)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	if e.setupDone.IsZero() || e.done.IsZero() {
		return nil, fmt.Errorf("workload %s did not mark its set-up and timed part", w.name)
	}
	s := e.out
	s.SetupDoneUnixNS = e.setupDone.UnixNano()
	s.CampaignS = e.done.Sub(e.setupDone).Seconds()
	s.CPUS = e.cpuS
	s.ImprovementPct = improvement
	rounds := e.rounds.values()
	s.RoundP50US = median(rounds)
	s.RoundP99US = quantile(rounds, 0.99)
	s.RoundsPerS = float64(len(rounds)) / s.CampaignS
	s.PeakRSSMB = peakRSSMB()
	s.Fingerprint = hex.EncodeToString(e.fp.Sum(nil))[:16]
	if traced {
		buckets, err := attributeProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("read profile: %w", err)
		}
		s.CPUSamples = buckets
		e.layer["trace.spans"] = float64(len(e.tr.spans))
		s.Layer = e.layer
		if outDir != "" {
			base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
			if err := e.tr.writeSpans(base + ".spans.jsonl"); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			if err := os.WriteFile(base+".pprof", prof.Bytes(), 0o644); err != nil {
				return nil, fmt.Errorf("write profile: %w", err)
			}
		}
	}
	return s, nil
}

// childMain is the entry point of a child process: it prints the
// sample as one JSON line.
func childMain(w *workload, seed int64, traced bool, outDir string) int {
	s, err := runChild(w, seed, traced, false, outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}
