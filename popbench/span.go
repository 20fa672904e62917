package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public surface.
// Spans live in memory for the whole run and are written out at exit.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Scope is the scenario or job the call belongs to.
	Scope string `json:"scope"`
	// Layer is the per-layer metric the span's self time feeds ("" = none).
	Layer   string `json:"layer,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Calls > 0 marks an aggregate child: Calls back-to-back calls (the
	// predicate evaluations inside one run) whose durations sum to
	// EndNS-StartNS. Recording them one span per call would hold millions
	// of spans for a stepwise run.
	Calls int64 `json:"calls,omitempty"`
}

// tracer records spans when on; a nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name, layer, scope string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Scope: scope, Layer: layer, StartNS: start})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// setLayer names the layer of an open span once the call has said which
// backend served it.
func (t *tracer) setLayer(id int, layer string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Layer = layer
	t.mu.Unlock()
}

// aggregate records calls back-to-back calls totalling d under parent.
func (t *tracer) aggregate(name, layer string, parent int, calls int64, d time.Duration) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Scope: p.Scope, Layer: layer,
		StartNS: p.StartNS, EndNS: p.StartNS + int64(d), Calls: calls,
	})
}

// observer times the benchmark-supplied predicate inside one run span.
type observer struct {
	calls int64
	total time.Duration
}

// wrap returns pred timed into o, or pred itself when tracing is off.
func wrap[T any](t *tracer, o *observer, pred func(T) bool) func(T) bool {
	if t == nil {
		return pred
	}
	return func(v T) bool {
		start := time.Now()
		ok := pred(v)
		o.total += time.Since(start)
		o.calls++
		return ok
	}
}

// layerTotal is one layer's self time and span count over a traced phase.
type layerTotal struct {
	Self  time.Duration
	Count int64
}

// selfTimes sums each layer's self time: a span's duration minus the time
// its children cover. The benchmark's children of one span run one after
// another, so their durations add up.
func (t *tracer) selfTimes() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	childTime := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]*layerTotal)
	for _, s := range t.spans {
		if s.Layer == "" {
			continue
		}
		lt := out[s.Layer]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Layer] = lt
		}
		lt.Self += time.Duration(s.EndNS - s.StartNS - childTime[s.ID])
		if s.Calls > 0 {
			lt.Count += s.Calls
		} else {
			lt.Count++
		}
	}
	return out
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
