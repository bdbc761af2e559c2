package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the traced pass.
type span struct {
	Name     string
	Workload string
	Op       int // operation or repetition number
	Parent   int // index of the enclosing span, -1 for none
	Start    time.Time
	End      time.Time
}

// tracer keeps the spans of a run in memory until the run ends. Spans open
// and close on the harness's main goroutine only.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, which ends it and parents others.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Op: op, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Now()
	t.spans[id].End = now
	return now.Sub(t.spans[id].Start)
}

// add records a span whose interval is already known.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Op: op, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// timed records fn as a span and returns how long it took.
func (t *tracer) timed(name string, op, parent int, fn func()) time.Duration {
	id := t.begin(name, op, parent)
	fn()
	return t.end(id)
}

// writeChrome writes the spans as Chrome trace-event JSON (complete events,
// one process per workload), loadable in chrome://tracing and Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	pids := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if _, ok := pids[s.Workload]; !ok {
			pids[s.Workload] = len(pids) + 1
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(t.epoch)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Pid: pids[s.Workload], Tid: 1,
			Args: map[string]any{"workload": s.Workload, "op": s.Op, "span": i, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
