package pubsub

import (
	"errors"
	"testing"
	"time"

	"caribou/internal/simclock"
)

var t0 = time.Date(2023, 10, 15, 0, 0, 0, 0, time.UTC)

// latency is the delivery delay the tests publish with.
const latency = 10 * time.Millisecond

func newBroker(cfg Config) (*simclock.Scheduler, *Broker) {
	sched := simclock.New(t0)
	return sched, NewBroker(sched, cfg, simclock.NewRand(1))
}

func TestDeliverToSubscriber(t *testing.T) {
	sched, b := newBroker(Config{})
	var got []string
	b.Subscribe("t", func(m Message) error {
		got = append(got, string(m.Data))
		if m.Attempt != 1 {
			t.Errorf("attempt = %d", m.Attempt)
		}
		return nil
	})
	if err := b.PublishAfter("t", []byte("hello"), latency); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v", got)
	}
}

func TestDeliveryRespectsLatency(t *testing.T) {
	sched, b := newBroker(Config{})
	var at time.Time
	b.Subscribe("t", func(Message) error {
		at = sched.Now()
		return nil
	})
	if err := b.PublishAfter("t", nil, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if want := t0.Add(250 * time.Millisecond); !at.Equal(want) {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestRedeliveryOnNack(t *testing.T) {
	sched, b := newBroker(Config{})
	attempts := 0
	b.Subscribe("t", func(m Message) error {
		attempts++
		if attempts < 3 {
			return errors.New("nack")
		}
		return nil
	})
	if err := b.PublishAfter("t", nil, latency); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
}

func TestDropAfterMaxAttempts(t *testing.T) {
	sched, b := newBroker(Config{})
	attempts := 0
	b.Subscribe("t", func(Message) error {
		attempts++
		return errors.New("always fails")
	})
	var dropped []Message
	b.OnDrop(func(m Message) { dropped = append(dropped, m) })
	if err := b.PublishAfter("t", []byte("x"), latency); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if attempts != maxAttempts {
		t.Errorf("attempts = %d, want %d", attempts, maxAttempts)
	}
	if len(dropped) != 1 || dropped[0].Topic != "t" {
		t.Errorf("dropped = %v", dropped)
	}
}

func TestMultipleOnDropCallbacks(t *testing.T) {
	sched, b := newBroker(Config{})
	calls := 0
	b.OnDrop(func(Message) { calls++ })
	b.OnDrop(func(Message) { calls++ })
	if err := b.PublishAfter("nobody", nil, latency); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if calls != 2 {
		t.Errorf("drop callbacks = %d, want 2", calls)
	}
}

func TestSubscriberAppearingBeforeDelivery(t *testing.T) {
	// Deployment racing traffic: a publish before Subscribe still
	// delivers if the subscriber exists at (re)delivery time.
	sched, b := newBroker(Config{})
	if err := b.PublishAfter("late", []byte("x"), latency); err != nil {
		t.Fatal(err)
	}
	delivered := false
	sched.After(500*time.Millisecond, func() {
		b.Subscribe("late", func(Message) error {
			delivered = true
			return nil
		})
	})
	sched.Run()
	if !delivered {
		t.Error("message not delivered to late subscriber")
	}
}

func TestResubscribeReplacesHandler(t *testing.T) {
	sched, b := newBroker(Config{})
	first, second := 0, 0
	b.Subscribe("t", func(Message) error { first++; return nil })
	b.Subscribe("t", func(Message) error { second++; return nil })
	if err := b.PublishAfter("t", nil, latency); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if first != 0 || second != 1 {
		t.Errorf("first=%d second=%d", first, second)
	}
	b.Unsubscribe("t")
	if b.subs["t"] != nil {
		t.Error("unsubscribe failed")
	}
	b.Subscribe("t", nil)
	if b.subs["t"] != nil {
		t.Error("nil handler should unsubscribe")
	}
}

func TestDuplicateInjection(t *testing.T) {
	sched := simclock.New(t0)
	b := NewBroker(sched, Config{DuplicateProb: 1.0}, simclock.NewRand(1))
	got := 0
	b.Subscribe("t", func(Message) error { got++; return nil })
	if err := b.PublishAfter("t", nil, 0); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if got != 2 {
		t.Errorf("deliveries = %d, want 2 (duplicate injected)", got)
	}
}

func TestEmptyTopicRejected(t *testing.T) {
	_, b := newBroker(Config{})
	if err := b.PublishAfter("", nil, 0); err == nil {
		t.Error("want error for empty topic")
	}
}

func TestPayloadIsolation(t *testing.T) {
	sched, b := newBroker(Config{})
	data := []byte("orig")
	var seen string
	b.Subscribe("t", func(m Message) error {
		seen = string(m.Data)
		return nil
	})
	if err := b.PublishAfter("t", data, latency); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // mutate after publish
	sched.Run()
	if seen != "orig" {
		t.Errorf("payload aliased: %q", seen)
	}
}

func TestBackoffDoubling(t *testing.T) {
	sched, b := newBroker(Config{})
	var times []time.Time
	b.Subscribe("t", func(Message) error {
		times = append(times, sched.Now())
		return errors.New("nack")
	})
	if err := b.PublishAfter("t", nil, 0); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(times) != maxAttempts {
		t.Fatalf("attempts = %d, want %d", len(times), maxAttempts)
	}
	// Gaps: 1s, 2s, 4s, 8s.
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		if gap := times[i+1].Sub(times[i]); gap != want {
			t.Errorf("gap %d = %v, want %v", i, gap, want)
		}
	}
}
