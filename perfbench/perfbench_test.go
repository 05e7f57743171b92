package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// summaryLine is the last line of a run's standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCLI runs the benchmark's command line at reduced size and returns
// the exit status, the parsed last line and the full standard output.
func runCLI(t *testing.T, args ...string) (int, summaryLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--small", "--seconds", "0", "--out", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var dl summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &dl); err != nil {
		t.Fatalf("perfbench %v: last line %q: %v (stderr: %s)", args, lines[len(lines)-1], err, stderr.String())
	}
	return code, dl, stdout.String()
}

type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics requires the printed metrics to be exactly the listed
// set, with the listed units and well-formed names.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", label, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", label, w.Name, m.Unit, w.Unit)
		}
	}
	for name := range got {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q does not match %s", label, name, metricName)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(workloadNames(), ","); got != strings.Join(names, ",") {
		t.Errorf("workloads %s, BENCHMARK.json lists %s", got, strings.Join(names, ","))
	}
}

func TestMeasuredRunsPrintListedMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		code, dl, out := runCLI(t, "--workload", w.name, "--seed", "7")
		if code != 0 || !dl.Correct || dl.Failed != 0 || dl.Attempted < 1 {
			t.Fatalf("%s: exit %d, line %+v\n%s", w.name, code, dl, out)
		}
		checkMetrics(t, w.name, dl.Metrics, spec.EndToEnd)
		for name, m := range dl.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		// The ungated figures are printed for readers, with units.
		for _, name := range []string{"fail_frac"} {
			if !strings.Contains(out, w.name+" "+name+" 0 ratio\n") {
				t.Errorf("%s: no %s line in\n%s", w.name, name, out)
			}
		}
	}
}

func TestTracedRunPrintsListedMetrics(t *testing.T) {
	spec := loadSpec(t)
	code, dl, out := runCLI(t, "--trace", "1", "--seed", "7")
	if code != 0 || !dl.Correct || dl.Failed != 0 {
		t.Fatalf("exit %d, line %+v\n%s", code, dl, out)
	}
	checkMetrics(t, "traced", dl.Metrics, spec.PerLayer)
	if !strings.Contains(out, "\ntraced dse.sweep_s ") {
		t.Errorf("per-layer lines not labelled:\n%s", out)
	}
	for _, w := range workloads {
		if !strings.Contains(out, "trace-"+w.name+"-seed7.json") {
			t.Errorf("no span file for %s in\n%s", w.name, out)
		}
	}
}

// exactCounts are the traced metrics that count work rather than time
// it; they must repeat exactly.
var exactCounts = regexp.MustCompile(`^(tta\.cycles|fu\.rtu_loads|net\.ctrl_frames|net\.taco_hops|rtable\..*\.(probes_per_lookup|mem_mbit))$`)

func TestRepeatedRunsAgree(t *testing.T) {
	for _, w := range workloads {
		var digests []string
		var counts []int64
		for i := 0; i < 2; i++ {
			res := measuredRun(w, w.defaultSeed+1, smallSize, 0)
			if !res.Correct {
				t.Fatalf("%s: %v", w.name, res.Problems)
			}
			digests = append(digests, res.Digests["output"])
			counts = append(counts, res.Attempted, res.Failed)
		}
		if digests[0] != digests[1] || counts[0] != counts[2] || counts[1] != counts[3] {
			t.Errorf("%s: two runs differ: digests %v, attempted/failed %v", w.name, digests, counts)
		}
	}
	var traced []map[string]metric
	for i := 0; i < 2; i++ {
		res := tracedRun(5, smallSize, t.TempDir())
		if !res.Correct {
			t.Fatalf("traced: %v", res.Problems)
		}
		traced = append(traced, res.Metrics)
	}
	n := 0
	for name, m := range traced[0] {
		if exactCounts.MatchString(name) {
			n++
			if traced[1][name] != m {
				t.Errorf("traced %s: %v then %v", name, m, traced[1][name])
			}
		}
	}
	// tta.cycles, fu.rtu_loads, net.ctrl_frames, net.taco_hops, and the
	// probes and memory of the four kinds EvaluateScaled builds.
	if n != 4+2*4 {
		t.Errorf("checked %d exact counts", n)
	}
}

func TestResultRecordsEnvironment(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--small", "--seconds", "0", "--out", dir, "--workload", "table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "result-table1-seed2003-trace0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec result
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if e := rec.Env; !strings.HasPrefix(e.GoVersion, "go") || e.GOMAXPROCS < 1 || e.NProc < 1 || e.Commit == "" {
		t.Errorf("environment not recorded: %+v", e)
	}
	if !strings.Contains(stdout.String(), "GOMAXPROCS") {
		t.Errorf("environment not printed:\n%s", stdout.String())
	}
}

// TestWrongOutputFails runs a workload whose output changes from one
// run of the same seed to the next: the run must be marked incorrect
// and exit non-zero, naming the workload.
func TestWrongOutputFails(t *testing.T) {
	calls := 0
	flaky := &bench{name: "flaky", prepare: func(seed uint64, sz size) (func() (outcome, error), error) {
		return func() (outcome, error) {
			calls++
			return outcome{export: []byte{byte(calls)}, attempted: 1}, nil
		}, nil
	}}
	res := measuredRun(flaky, 1, smallSize, 0)
	if res.Correct || len(res.Problems) == 0 {
		t.Fatalf("a run whose output changed was accepted: %+v", res)
	}

	saved := workloads
	workloads = []*bench{flaky}
	defer func() { workloads = saved }()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--small", "--seconds", "0", "--out", t.TempDir(), "--workload", "flaky"}, &stdout, &stderr)
	if code == 0 || !strings.Contains(stderr.String(), "flaky") || !strings.Contains(stdout.String(), `"correct":false`) {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

func TestPinnedDigestsParse(t *testing.T) {
	for _, w := range workloads {
		if d, ok := pinnedDigest(w.name, w.defaultSeed); !ok || len(d) != 64 {
			t.Errorf("%s: no pinned digest for default seed %d", w.name, w.defaultSeed)
		}
	}
}
