package telemetry

import (
	"sync"
	"time"
)

// Record is one flight-recorder entry: a completed span or a point event.
// Records marshal directly to the NDJSON export format.
type Record struct {
	// Type is "span" or "event".
	Type string `json:"type"`
	// ID and Parent link spans; Parent is zero for roots and events.
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Wall is the wall-clock start (span) or record time (event).
	Wall time.Time `json:"wall"`
	// DurNS is the span's wall-clock duration in nanoseconds.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Attrs hold key/value annotations; simulated-clock stamps appear
	// here under "sim" (see Time), never in Wall.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// ring is a bounded flight recorder: the most recent cap records are
// retained, older ones are overwritten in place. All methods are safe for
// concurrent use.
type ring struct {
	mu    sync.Mutex
	buf   []Record
	total uint64 // records ever appended
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]Record, 0, capacity)}
}

func (r *ring) append(rec Record) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = rec
	}
	r.total++
	r.mu.Unlock()
}

// snapshot returns retained records oldest-first plus the total ever
// appended (total - len(records) were dropped by the ring bound).
func (r *ring) snapshot() ([]Record, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, len(r.buf))
	if r.total > uint64(cap(r.buf)) {
		at := int(r.total % uint64(cap(r.buf)))
		out = append(out, r.buf[at:]...)
		out = append(out, r.buf[:at]...)
	} else {
		out = append(out, r.buf...)
	}
	return out, r.total
}
