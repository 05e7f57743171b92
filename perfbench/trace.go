package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, made from the
// benchmark's own code.
type span struct {
	Name   string
	ID     int
	Parent int // -1 for a root span
	Inst   int // the instance (cell, table kind, tick) the call belongs to
	Start  time.Duration
	End    time.Duration
	// Bytes and Mallocs are the heap allocation inside the span, for
	// spans opened with beginAlloc.
	Bytes, Mallocs int64
	alloc          bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// off switch: every method is a no-op, so the same decomposition code
// runs untraced to measure the tracing overhead. A tracer belongs to
// one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, inst int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Inst: inst})
	t.open = append(t.open, id)
	t.spans[id].Start = time.Since(t.epoch)
	return id
}

// beginAlloc opens a span that also records the heap allocation inside
// it. Reading the allocation counters stops the world briefly, so only
// the spans behind an allocation metric use it.
func (t *tracer) beginAlloc(name string, inst int) int {
	if t == nil {
		return -1
	}
	runtime.ReadMemStats(&t.ms)
	id := t.begin(name, inst)
	t.spans[id].alloc = true
	t.spans[id].Bytes = -int64(t.ms.TotalAlloc)
	t.spans[id].Mallocs = -int64(t.ms.Mallocs)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	s := &t.spans[id]
	s.End = now
	if s.alloc {
		runtime.ReadMemStats(&t.ms)
		s.Bytes += int64(t.ms.TotalAlloc)
		s.Mallocs += int64(t.ms.Mallocs)
	}
	t.open = t.open[:len(t.open)-1]
}

// named returns every span called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

// layers are the module names a layer span's name starts with.
var layers = []string{"dse.", "core.", "workload.", "rtable.", "router.", "tta.", "linecard.", "estimate.", "net.", "ripng."}

func isLayerSpan(name string) bool {
	for _, l := range layers {
		if strings.HasPrefix(name, l) {
			return true
		}
	}
	return false
}

// explained returns the share of root's duration covered by the self
// time (duration minus the part covered by child spans) of the layer
// spans under it.
func (t *tracer) explained(root int) float64 {
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	under := make([]bool, len(t.spans))
	under[root] = true
	var self time.Duration
	for _, s := range t.spans[root+1:] { // children follow their parent
		if s.Parent < 0 || !under[s.Parent] {
			continue
		}
		under[s.ID] = true
		if isLayerSpan(s.Name) {
			self += s.dur() - childTime[s.ID]
		}
	}
	return self.Seconds() / t.spans[root].dur().Seconds()
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, one thread row per instance), loadable in Perfetto or
// chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	for i, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "inst": s.Inst}
		if s.alloc {
			args["bytes"], args["mallocs"] = s.Bytes, s.Mallocs
		}
		b, err := json.Marshal(event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Inst, Args: args})
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
