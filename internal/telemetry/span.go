package telemetry

import "time"

// Span is one in-flight traced operation. Spans measure wall-clock time
// (they profile the system, not the simulation; simulated-time stamps go
// in attributes via Time). A nil *Span is valid and inert, so callers
// never branch on whether telemetry is enabled.
type Span struct {
	r      *Recorder
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
}

// StartSpan opens a root span. Returns nil (a valid no-op span) on a nil
// Recorder.
func (r *Recorder) StartSpan(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		r:     r,
		id:    r.nextID.Add(1),
		name:  name,
		start: time.Now(),
		attrs: attrs,
	}
}

// StartChild opens a span parented to s. Safe on a nil span (returns nil).
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	child := s.r.StartSpan(name, attrs...)
	child.parent = s.id
	return child
}

// Annotate appends attributes to the span. Safe on a nil span.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span and commits it to the flight recorder. Safe on a
// nil span; calling End more than once records the span more than once,
// so don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.r.ring.append(Record{
		Type:   "span",
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Wall:   s.start,
		DurNS:  int64(time.Since(s.start)),
		Attrs:  attrMap(s.attrs),
	})
}

// Event records a point-in-time occurrence directly to the flight
// recorder. sim is the simulated-clock stamp (stored as the "sim"
// attribute); pass the zero time for occurrences outside any simulation.
// Safe on a nil Recorder.
func (r *Recorder) Event(name string, sim time.Time, attrs ...Attr) {
	if r == nil {
		return
	}
	if !sim.IsZero() {
		attrs = append(attrs, Time("sim", sim))
	}
	r.ring.append(Record{
		Type:  "event",
		Name:  name,
		Wall:  time.Now(),
		Attrs: attrMap(attrs),
	})
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}
