// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three named workloads through the same public entry points the
// CLIs use, checks every output, and prints the workload's metrics.
//
//	perfbench --workload table1 --seed 2003 --seconds 10 --trace 0
//
// A measured run (--trace 0) repeats the workload's timed section for
// --seconds seconds and reports medians of wall time, CPU time and
// allocation, plus set-up time and peak resident memory. A traced run
// (--trace 1) decomposes all three workloads into the public calls of
// each layer, records a span around every call, writes the spans as
// Chrome trace-event JSON and reports the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Any wrong output — a digest mismatch on a pinned seed, a run that
// differs from the run before it, a failed interpreter replay or
// campaign verdict, a traced decomposition that disagrees with the
// untraced result — sets "correct" to false and the exit status to 1.
// Usage errors exit with 2. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"taco/internal/cliutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "table1", "workload: "+strings.Join(workloadNames(), " | ")+" | all")
		seed    = fs.Int64("seed", -1, "workload seed (-1: the workload's default seed)")
		seconds = fs.Float64("seconds", 10, "measured run: how long to repeat the timed section")
		trace   = fs.Int("trace", 0, "1: traced per-layer run over every workload instead of a measured run")
		small   = fs.Bool("small", false, "reduced input sizes (smoke tests)")
		outDir  = fs.String("out", filepath.Join(".bench_build", "results"), "directory for result records and span files")
	)
	var prof cliutil.Profiling
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var ws []*bench
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*bench{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s | all)\n", *name, strings.Join(workloadNames(), " | "))
		return 2
	}
	sz := fullSize
	if *small {
		sz = smallSize
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	stop, err := prof.Start()
	defer stop()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	var results []*result
	if *trace == 1 {
		// The traced run decomposes every workload, whichever is named.
		results = append(results, tracedRun(*seed, sz, *outDir))
	} else {
		for _, w := range ws {
			s := w.defaultSeed
			if *seed >= 0 {
				s = uint64(*seed)
			}
			results = append(results, measuredRun(w, s, sz, *seconds))
		}
	}
	status := 0
	for _, res := range results {
		res.Env = currentEnv()
		if err := res.write(stdout, *outDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if !res.Correct {
			for _, p := range res.Problems {
				fmt.Fprintf(stderr, "perfbench: %s: %s\n", res.Workload, p)
			}
			fmt.Fprintf(stderr, "perfbench: %s: output check FAILED\n", res.Workload)
			status = 1
		}
	}
	return status
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env records where a result was measured.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	e := env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			e.Commit = rev
			if dirty {
				e.Commit += "-dirty"
			}
		}
	}
	return e
}

// result is one run's outcome. The gated metrics (Metrics) are exactly
// the BENCHMARK.json set for the run's mode; Extra holds the figures
// printed for readers but not gated: fail_frac (a metric that is 0 on a
// healthy run), and the workload-specific throughputs
// sim_mcycles_per_s and node_ticks_per_s.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Digests   map[string]string `json:"digests,omitempty"`
	// Samples holds the per-iteration values behind each median.
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Problems  []string             `json:"problems,omitempty"`
	SpanFiles []string             `json:"span_files,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// write prints the human-readable summary, saves the full record under
// outDir, and prints the one-line JSON summary last.
func (r *result) write(w io.Writer, outDir string) error {
	fmt.Fprintf(w, "# %s seed %d: go %s, GOMAXPROCS %d, nproc %d, commit %s\n",
		r.Workload, r.Seed, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.Commit)
	printMetrics(w, r.Workload, r.Metrics)
	printMetrics(w, r.Workload, r.Extra)
	for _, k := range sortedKeys(r.Digests) {
		fmt.Fprintf(w, "%s digest %s %s\n", r.Workload, k, r.Digests[k])
	}
	for _, f := range r.SpanFiles {
		fmt.Fprintf(w, "%s spans %s\n", r.Workload, f)
	}
	rec, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	file := fmt.Sprintf("result-%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	if err := os.WriteFile(filepath.Join(outDir, file), append(rec, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, name string, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", name, k, ms[k].Value, ms[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
