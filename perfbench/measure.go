package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// outcome is what one timed iteration produced: its deterministic
// output (digested and compared run to run), the operations it
// attempted and failed, the in-program oracle verdicts, and the work
// counts behind the workload-specific throughputs.
type outcome struct {
	export    []byte
	attempted int64
	failed    int64
	problems  []string
	simCycles int64 // simulated TACO cycles (table1)
	nodeTicks int64 // nodes × ticks advanced (campaign)
}

// bench is one named benchmark workload.
type bench struct {
	name        string
	defaultSeed uint64
	// prepare does the workload's set-up for one iteration and returns
	// the timed section. Set-up is timed on its own as setup_s.
	prepare func(seed uint64, sz size) (func() (outcome, error), error)
}

var workloads = []*bench{table1Workload, largeTableWorkload, campaignWorkload}

func workloadByName(name string) *bench {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// pinnedDigests maps "<workload> <seed>" to the SHA-256 of the
// workload's full-size output export at that seed.
//
//go:embed digests.json
var pinnedDigestsJSON []byte

func pinnedDigest(name string, seed uint64) (string, bool) {
	var pins map[string]string
	if err := json.Unmarshal(pinnedDigestsJSON, &pins); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	d, ok := pins[fmt.Sprintf("%s %d", name, seed)]
	return d, ok
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// setupBatch is the shortest batch of set-ups timed together, so
// set-ups of a few microseconds are timed well above the clock's
// resolution.
const setupBatch = 20 * time.Millisecond

// measuredRun runs w's timed section repeatedly for the given number of
// seconds and reports medians. The first iteration warms caches and
// the heap and is checked but not counted in the medians.
//
// Iterations 0 and 1 run the inputs of seed itself, and must give the
// same output; iteration i > 1 runs the inputs of seed+i-1. A run's
// medians thus summarise a dozen inputs rather than one, which keeps
// the spread between runs at different seeds small.
func measuredRun(w *bench, seed uint64, sz size, seconds float64) *result {
	res := &result{Workload: w.name, Seed: int64(seed), Correct: true,
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Digests: map[string]string{}}

	var (
		setups, walls, cpus, allocs, mallocs, simRates, tickRates []float64
		first                                                     string
		deadline                                                  = time.Now().Add(time.Duration(seconds * float64(time.Second)))
	)
	for iter := 0; ; iter++ {
		in := seed
		if iter > 1 {
			in = seed + uint64(iter-1)
		}
		setup, timed, err := prepare(w, in, sz)
		if err != nil {
			res.fail("set-up: %v", err)
			return res
		}
		setups = append(setups, setup)
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		t0 := time.Now()
		out, err := timed()
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms1)
		if err != nil {
			res.fail("iteration %d: %v", iter, err)
			return res
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		for _, p := range out.problems {
			res.fail("iteration %d: %s", iter, p)
		}
		switch d := digest(out.export); iter {
		case 0:
			first = d
			res.Digests["output"] = d
			if pin, ok := pinnedDigest(w.name, seed); ok && sz == fullSize && pin != d {
				res.fail("output digest %s, pinned %s for seed %d", d, pin, seed)
			}
		case 1:
			if d != first {
				res.fail("repeated run of seed %d: output digest %s, first run %s", seed, d, first)
			}
		}
		if !res.Correct {
			return res
		}
		if iter > 0 {
			walls = append(walls, wall)
			cpus = append(cpus, cpu)
			allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc))
			mallocs = append(mallocs, float64(ms1.Mallocs-ms0.Mallocs))
			simRates = append(simRates, float64(out.simCycles)/1e6/wall)
			tickRates = append(tickRates, float64(out.nodeTicks)/wall)
		}
		// At least two counted iterations, so a median exists even when
		// one iteration outlasts the run length.
		if iter >= 2 && time.Now().After(deadline) {
			break
		}
	}

	res.Samples = map[string][]float64{"wall_s": walls, "setup_s": setups, "cpu_s": cpus}
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["cpu_s"] = metric{median(cpus), "s"}
	res.Metrics["alloc_mb"] = metric{median(allocs) / 1e6, "MB"}
	res.Metrics["mallocs_k"] = metric{median(mallocs) / 1e3, "k"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	res.Extra["fail_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	if r := median(simRates); r > 0 {
		res.Extra["sim_mcycles_per_s"] = metric{r, "Mcycles/s"}
	}
	if r := median(tickRates); r > 0 {
		res.Extra["node_ticks_per_s"] = metric{r, "1/s"}
	}
	return res
}

// prepare times a batch of w's set-ups at least setupBatch long and
// returns the time per set-up in seconds and the last set-up's timed
// section.
func prepare(w *bench, seed uint64, sz size) (float64, func() (outcome, error), error) {
	runtime.GC()
	n := 0
	t0 := time.Now()
	for {
		timed, err := w.prepare(seed, sz)
		if err != nil {
			return 0, nil, err
		}
		n++
		if el := time.Since(t0); el >= setupBatch {
			return el.Seconds() / float64(n), timed, nil
		}
	}
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size in megabytes
// (Linux reports ru_maxrss in kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
