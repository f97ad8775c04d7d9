package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// spanName indexes spanNames; spans store the index, not the string,
// so recording one is two clock reads and a 32-byte store.
type spanName uint8

const (
	spRun spanName = iota
	spCycle
	spSubmit
	spPull
	spComplete
	spCollect
	spTick
	spStatsPoll
	spSolve
	spConfigure
	spTraceSynth
	spSystemBuild
	spSystemRun
	spSummarize
	spTimeline
	spClusterRun
)

var spanNames = [...]string{
	spRun: "run", spCycle: "cycle",
	spSubmit: "cluster.submit", spPull: "cluster.pull", spComplete: "cluster.complete", spCollect: "cluster.collect",
	spTick: "tick", spStatsPoll: "cluster.stats_poll", spSolve: "controller.solve", spConfigure: "cluster.configure",
	spTraceSynth: "trace.synth", spSystemBuild: "system.build", spSystemRun: "system.run",
	spSummarize: "metrics.summarize", spTimeline: "metrics.timeline", spClusterRun: "cluster.run",
}

// span is one timed call into a layer. parent is the index of the span
// that caused it (-1 for the root); id is the cycle or tick it belongs
// to, shared by every span of that cycle.
type span struct {
	name       spanName
	parent, id int32
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in a preallocated buffer and writes them out at
// exit. A nil *tracer records nothing: the untraced run pays one nil
// check per call site and no clock read.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// startTrace returns the run's tracer with its root span open, or nil
// and -1 for an untraced run.
func startTrace(cfg runCfg, capacity int) (*tracer, int32) {
	if !cfg.traced {
		return nil, -1
	}
	t := newTracer(capacity)
	return t, t.begin(spRun, -1, 0)
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name spanName, parent int32, id int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, id: int32(id), start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	t.spans[idx].end = int64(time.Since(t.t0))
}

// durations returns every closed span of the given name, in the unit
// 1/div ns (div 1e3: µs, 1e6: ms).
func (t *tracer) durations(name spanName, div float64) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name && s.end > 0 {
			out = append(out, float64(s.end-s.start)/div)
		}
	}
	return out
}

// total is the summed duration of the named spans, in seconds.
func (t *tracer) total(name spanName) float64 {
	sum := 0.0
	for _, d := range t.durations(name, 1) {
		sum += d
	}
	return sum / 1e9
}

// overheadRatio is the share of the run the tracing itself took: spans
// recorded times what recording one costs in this process, measured on
// a scratch tracer, over the root span's duration.
func (t *tracer) overheadRatio() float64 {
	const n = 200_000
	scratch := newTracer(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.begin(spCycle, -1, i))
	}
	perSpan := time.Since(start).Seconds() / n
	return float64(len(t.spans)) * perSpan / t.total(spRun)
}

// maxDumpSpans bounds the span dump: a sharded closed loop records a
// million spans, 110 MB as JSON lines, and its first ten thousand
// cycles show what the rest do. The metrics use every span.
const maxDumpSpans = 200_000

// write dumps the first maxDumpSpans spans as JSON lines under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i := range t.spans[:min(len(t.spans), maxDumpSpans)] {
		s := &t.spans[i]
		line = append(line[:0], `{"span":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.name]...)
		line = append(line, `","parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"id":`...)
		line = strconv.AppendInt(line, int64(s.id), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// quantile is the q-quantile of xs by linear interpolation; xs is
// sorted in place. Empty input gives 0 so that a layer that did no
// work reports 0, never NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
