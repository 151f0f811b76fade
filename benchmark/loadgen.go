package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"caribou/internal/simclock"
)

// The load generator. An open-loop step sends a fixed, seeded arrival
// schedule regardless of how fast responses come back, and times every
// request from the instant it was *due*, not the instant it was sent: a
// stall in the server (or in the generator) is charged to every request
// queued behind it, so there is no coordinated omission. A closed-loop
// step sends the same kind of requests back to back and measures
// capacity.
//
// The box has nproc cores shared by generator and server, so there are
// never more than nproc senders, each owning one keep-alive connection.
// Senders take arrivals from one shared cursor in schedule order — a
// sender stuck behind a slow response does not hold up arrivals another
// sender is free to take.

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration // intended send time, as an offset from the step's start
	kind   uint8         // workload-defined request type
	tenant int
	n      int // kind-specific sequence number (a tenant's n-th delta, the n-th new registration)
}

// sample is what happened to one arrival; offsets share the arrival's
// origin.
type sample struct {
	at   time.Duration // intended send time
	sent time.Duration // actual send time
	done time.Duration // response fully read and validated
	kind uint8
	ok   bool // right status, valid body, checks passed
	flag bool // kind-specific response fact (a trace delta: it carried a solve)
}

func (s sample) latencyMs() float64 { return float64(s.done-s.at) / float64(time.Millisecond) }
func (s sample) lateMs() float64    { return float64(s.sent-s.at) / float64(time.Millisecond) }

// doFunc sends one arrival on sender's own connection and validates the
// response.
type doFunc func(sender int, a arrival) (ok, flag bool)

// poissonSchedule draws a rate-per-second Poisson arrival process over d
// from rng; next labels each arrival with its request.
func poissonSchedule(rng *simclock.Rand, rate float64, d time.Duration, next func() arrival) []arrival {
	out := make([]arrival, 0, int(rate*d.Seconds()*1.1)+16)
	mean := float64(time.Second) / rate
	for t := rng.Exponential(mean); t < float64(d); t += rng.Exponential(mean) {
		a := next()
		a.at = time.Duration(t)
		out = append(out, a)
	}
	return out
}

// backToBack relabels a schedule for a closed loop: every arrival is due
// immediately.
func backToBack(arrivals []arrival) []arrival {
	for i := range arrivals {
		arrivals[i].at = 0
	}
	return arrivals
}

// runStep plays arrivals through senders concurrent senders and returns
// one sample per arrival taken, in schedule order, plus the time from the
// step's start to its last completion. With stopAfter > 0 senders stop
// taking arrivals once that much time has passed (closed-loop capacity
// runs hand in more arrivals than can be served); otherwise the schedule
// is drained to its end, however late the senders are running.
func runStep(senders int, arrivals []arrival, stopAfter time.Duration, do doFunc) ([]sample, time.Duration) {
	samples := make([]sample, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		//caribou:allow goroutines load-generator senders: at most nproc, each owns one connection, all joined before runStep returns
		go func(s int) {
			defer wg.Done()
			for {
				if stopAfter > 0 && now().Sub(start) >= stopAfter {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				sleepUntil(start.Add(a.at))
				sent := now().Sub(start)
				ok, flag := do(s, a)
				samples[i] = sample{at: a.at, sent: sent, done: now().Sub(start), kind: a.kind, ok: ok, flag: flag}
			}
		}(s)
	}
	wg.Wait()
	// Every reserved index below len(arrivals) was served to completion.
	taken := min(int(next.Load()), len(arrivals))
	return samples[:taken], now().Sub(start)
}

// httpSender is one sender's keep-alive connection.
type httpSender struct {
	client *http.Client
	tr     *http.Transport
	buf    bytes.Buffer
}

func newHTTPSenders(n int) []*httpSender {
	out := make([]*httpSender, n)
	for i := range out {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		out[i] = &httpSender{tr: tr, client: &http.Client{Transport: tr}}
	}
	return out
}

func closeSenders(ss []*httpSender) {
	for _, s := range ss {
		s.tr.CloseIdleConnections()
	}
}

// do performs one request and returns the status and the body, which is
// only valid until the sender's next request.
func (s *httpSender) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, s.buf.Bytes(), err
}

// loopback serves h on a real 127.0.0.1 listener inside this process.
type loopback struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	l := &loopback{
		base: "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	//caribou:allow goroutines accept loop of the in-process loopback server; close() shuts it down and waits for it
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always returns ErrServerClosed after close()
	}()
	return l, nil
}

func (l *loopback) close() {
	_ = l.srv.Close()
	<-l.done
}
