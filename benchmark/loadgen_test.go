package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedRequests is the no-coordinated-omission
// proof: one connection, one request per millisecond, and a server that
// stalls a single request for 50 ms. A closed-loop generator would record
// one slow request; timed from the intended send time, every request that
// fell due during the stall carries the part of it that it waited out.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		stall    = 50 * time.Millisecond
		stallAt  = 20
		requests = 200
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	senders := newHTTPSenders(1)
	defer closeSenders(senders)
	arrivals := make([]arrival, requests)
	for i := range arrivals {
		arrivals[i].at = time.Duration(i) * time.Millisecond
	}
	samples, _ := runStep(1, arrivals, 0, func(sender int, a arrival) (bool, bool) {
		status, _, err := senders[sender].do("GET", srv.URL, nil)
		return err == nil && status == http.StatusOK, false
	})
	if len(samples) != requests {
		t.Fatalf("got %d samples, want %d", len(samples), requests)
	}

	var fromIntended, fromSend int
	var maxLate time.Duration
	for _, s := range samples {
		if !s.ok {
			t.Fatalf("request due at %v failed", s.at)
		}
		if s.done-s.at >= stall/2 {
			fromIntended++
		}
		if s.done-s.sent >= stall/2 {
			fromSend++
		}
		if late := s.sent - s.at; late > maxLate {
			maxLate = late
		}
	}
	// About 25 requests fall due in the first half of the stall and so
	// wait out at least half of it.
	if fromIntended < 20 {
		t.Errorf("%d requests took >= %v from their intended send time; the stall should have been charged to at least 20 queued behind it", fromIntended, stall/2)
	}
	// Timed from the actual send, only the stalled request is slow (a
	// couple more on a host that hiccups).
	if fromSend < 1 || fromSend > 3 {
		t.Errorf("%d requests took >= %v from their actual send time, want just the stalled one", fromSend, stall/2)
	}
	if maxLate < stall*8/10 {
		t.Errorf("largest generator lateness %v, want about %v: the request due right after the stall began waits nearly all of it", maxLate, stall)
	}
	// The backlog drains: the last requests are on time again.
	if last := samples[requests-1]; last.done-last.at > stall/2 {
		t.Errorf("last request still %v behind its intended send time; the backlog never drained", last.done-last.at)
	}
}

// TestRunStepStopAfter checks the closed-loop mode: senders stop taking
// arrivals at the deadline and every taken arrival is reported.
func TestRunStepStopAfter(t *testing.T) {
	arrivals := backToBack(make([]arrival, 1_000_000))
	samples, elapsed := runStep(2, arrivals, 20*time.Millisecond, func(int, arrival) (bool, bool) {
		sleepUntil(now().Add(100 * time.Microsecond))
		return true, false
	})
	if len(samples) == 0 || len(samples) == len(arrivals) {
		t.Fatalf("took %d of %d arrivals in %v", len(samples), len(arrivals), elapsed)
	}
	for i, s := range samples {
		if !s.ok || s.done == 0 {
			t.Fatalf("sample %d of %d was never served: %+v", i, len(samples), s)
		}
	}
}
