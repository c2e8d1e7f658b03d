package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the spans of a traced run in memory: each wrapper the
// benchmark puts around a call into a layer opens one span, and every
// span belongs to one operation (a solve, a probe batch, a stream).
// Spans are written out once the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for an operation's root span
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// active is an open span; end closes it. It is passed by value so that
// opening a span allocates nothing and per-call allocation counts taken
// inside a traced loop stay those of the layer.
type active struct {
	tr     *tracer
	id     uint64
	parent uint64
	op     uint64
	name   string
	start  time.Time
}

// root opens the root span of a new operation. A nil tracer returns an
// inert span, so wrappers cost one nil check when tracing is off.
func (t *tracer) root(name string) active {
	if t == nil {
		return active{}
	}
	id := t.nextID.Add(1)
	return active{tr: t, id: id, op: id, name: name, start: time.Now()}
}

// child opens a span under parent, in parent's operation.
func (t *tracer) child(parent active, name string) active {
	return t.childOf(parent.id, parent.op, name)
}

// childOf opens a span under the span with id parentID of operation op.
func (t *tracer) childOf(parentID, op uint64, name string) active {
	if t == nil {
		return active{}
	}
	return active{tr: t, id: t.nextID.Add(1), parent: parentID, op: op, name: name, start: time.Now()}
}

// end closes the span and returns its duration; 0 for an inert span.
func (a active) end() time.Duration {
	if a.tr == nil {
		return 0
	}
	now := time.Now()
	t := a.tr
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: a.id, Parent: a.parent, Op: a.op, Name: a.name,
		Start: int64(a.start.Sub(t.t0)), End: int64(now.Sub(t.t0)),
	})
	t.mu.Unlock()
	return now.Sub(a.start)
}

// spansOf returns the durations, in ns, of the closed spans of operation
// op called name.
func (t *tracer) spansOf(op uint64, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Op == op && s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// spanTotal sums the spans of one name: how many, their total duration,
// and their self time — each span's duration minus the part of its
// interval that its child spans cover.
type spanTotal struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

func (t *tracer) selfTimes() map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]spanTotal{}
	for _, s := range t.spans {
		tot := out[s.Name]
		tot.Count++
		tot.TotalNS += s.End - s.Start
		tot.SelfNS += s.End - s.Start - covered(s, kids[s.ID])
		out[s.Name] = tot
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
