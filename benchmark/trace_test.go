package main

import (
	"testing"
	"time"

	"caribou/internal/telemetry"
)

// TestSelfTimes checks the self-time fold: a span's self time is its
// duration minus the union of its children's intervals, clipped to it.
func TestSelfTimes(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	span := func(id, parent uint64, name string, startMs, durMs int64) telemetry.Record {
		return telemetry.Record{
			Type: "span", ID: id, Parent: parent, Name: name,
			Wall: t0.Add(time.Duration(startMs) * time.Millisecond), DurNS: durMs * int64(time.Millisecond),
		}
	}
	recs := []telemetry.Record{
		span(1, 0, "op", 0, 100),
		span(2, 1, "a", 10, 30), // [10,40)
		span(3, 1, "b", 30, 30), // [30,60) overlaps a: union [10,60) = 50
		span(4, 1, "b", 90, 30), // [90,120) clipped to the parent: 10
		span(5, 2, "leaf", 15, 5),
		{Type: "event", Name: "ignored", Wall: t0},
	}
	got := map[string]layerRow{}
	for _, r := range selfTimes(recs) {
		got[r.name] = r
	}
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	for _, want := range []layerRow{
		{name: "op", count: 1, total: ms(100), self: ms(40)},
		{name: "a", count: 1, total: ms(30), self: ms(25)},
		{name: "b", count: 2, total: ms(60), self: ms(60)},
		{name: "leaf", count: 1, total: ms(5), self: ms(5)},
	} {
		if got[want.name] != want {
			t.Errorf("%s: got %+v, want %+v", want.name, got[want.name], want)
		}
	}
	if len(got) != 4 {
		t.Errorf("got %d rows, want 4: %v", len(got), got)
	}
	if d := spanDurationsMs(recs, "b", t0, t0.Add(50*time.Millisecond)); len(d) != 1 || d[0] != 30 {
		t.Errorf("spanDurationsMs(b) inside the first 50 ms = %v, want the one span that started there", d)
	}
}
