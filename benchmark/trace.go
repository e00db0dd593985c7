package main

import "time"

// span is one timed interval of the traced replay. Spans are recorded by the
// benchmark around its calls into the layers' public functions; nothing
// inside the program under test is instrumented. IDs count from 0 within a
// workload, Parent is -1 for a root, and times are nanoseconds since the
// workload's trace began.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps the spans of one workload in memory; main writes them out
// when the benchmark ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) start(name string, parent, rep int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: rep})
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) stop(id int) time.Duration {
	end := int64(time.Since(t.t0))
	t.spans[id].End = end
	return time.Duration(end - t.spans[id].Start)
}

// do records a span around f.
func (t *tracer) do(name string, parent, rep int, f func()) time.Duration {
	id := t.start(name, parent, rep)
	f()
	return t.stop(id)
}

// overheadShare measures what recording a span costs, on a scratch tracer,
// and returns that cost times the spans recorded as a share of the time the
// root span covers: the traced wall over the untraced wall, minus one.
func (t *tracer) overheadShare() float64 {
	const probes = 4096
	scratch := newTracer("")
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		scratch.stop(scratch.start("probe", -1, 0))
	}
	perSpan := time.Since(t0).Seconds() / probes
	if len(t.spans) == 0 {
		return 0
	}
	root := t.spans[0]
	return ratio(perSpan*float64(len(t.spans)), time.Duration(root.End-root.Start).Seconds())
}
