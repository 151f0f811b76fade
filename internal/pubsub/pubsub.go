// Package pubsub provides the publisher/subscriber messaging substrate
// Caribou uses as its geospatial offloading glue (the paper uses AWS SNS;
// Azure Service Bus and Google Pub/Sub are equivalents). Topics are
// per-function-per-region; delivery is at-least-once with subscriber
// acknowledgment and automatic redelivery, matching §6.2.
//
// The broker runs on the discrete-event scheduler: publishing schedules a
// delivery event after a caller-supplied latency, so messaging delay is
// part of simulated time.
package pubsub

import (
	"errors"
	"fmt"
	"time"

	"caribou/internal/simclock"
)

// Message is one published message.
type Message struct {
	Topic   string
	Data    []byte
	Attempt int // 1 for the first delivery
}

// Handler consumes a delivered message. Returning a non-nil error nacks
// the message and triggers redelivery until maxAttempts is reached.
type Handler func(msg Message) error

const (
	maxAttempts = 5           // total delivery attempts before drop
	retryDelay  = time.Second // base redelivery backoff, doubled per attempt
)

// Config holds the broker's one option: duplicate-delivery fault injection.
type Config struct {
	// DuplicateProb injects duplicate deliveries with this probability
	// to exercise at-least-once semantics in tests. Default 0.
	DuplicateProb float64
}

// Broker routes messages from publishers to topic subscribers on virtual
// time. Broker is not safe for concurrent use; it belongs to the
// single-threaded simulation like the scheduler itself.
type Broker struct {
	sched  *simclock.Scheduler
	cfg    Config
	rng    *simclock.Rand
	subs   map[string]Handler
	onDrop []func(Message)
}

// NewBroker returns a broker on the given scheduler.
func NewBroker(sched *simclock.Scheduler, cfg Config, rng *simclock.Rand) *Broker {
	if rng == nil {
		rng = simclock.NewRand(1)
	}
	return &Broker{
		sched: sched,
		cfg:   cfg,
		rng:   rng,
		subs:  make(map[string]Handler),
	}
}

// Subscribe registers the single subscriber for topic, mirroring how each
// Caribou function deployment subscribes to exactly one topic in its
// region. Re-subscribing replaces the handler (re-deployment).
func (b *Broker) Subscribe(topic string, h Handler) {
	if h == nil {
		delete(b.subs, topic)
		return
	}
	b.subs[topic] = h
}

// Unsubscribe removes the subscriber for topic.
func (b *Broker) Unsubscribe(topic string) { delete(b.subs, topic) }

// OnDrop registers a callback invoked when a message exhausts its
// delivery attempts. The executor uses this to surface lost invocations.
// Multiple callbacks may be registered; all run on every drop.
func (b *Broker) OnDrop(fn func(Message)) { b.onDrop = append(b.onDrop, fn) }

// PublishAfter schedules delivery of data to topic after latency, which
// the caller computes from the publisher's and subscriber's regions.
// Publishing to a topic with no subscriber is not an immediate error: the
// subscriber may appear before delivery (deployment racing traffic); if
// none exists at delivery time the attempt counts and the message
// retries, matching pub/sub redelivery behaviour.
func (b *Broker) PublishAfter(topic string, data []byte, latency time.Duration) error {
	if topic == "" {
		return fmt.Errorf("pubsub: empty topic")
	}
	b.scheduleDelivery(topic, data, latency)
	if b.cfg.DuplicateProb > 0 && b.rng.Bool(b.cfg.DuplicateProb) {
		b.scheduleDelivery(topic, data, latency+retryDelay)
	}
	return nil
}

// delivery is one copy of a published message in flight, rescheduled as
// it stands on every retry; fire is its attempt method, bound once.
type delivery struct {
	b    *Broker
	msg  Message
	fire func()
}

func (b *Broker) scheduleDelivery(topic string, data []byte, after time.Duration) {
	d := &delivery{b: b, msg: Message{Topic: topic, Data: append([]byte(nil), data...)}}
	d.fire = d.attempt
	b.sched.After(after, d.fire)
}

// attempt delivers the message once; nacked or without a subscriber it
// backs off and retries until maxAttempts, then drops.
func (d *delivery) attempt() {
	b := d.b
	d.msg.Attempt++
	err := errNoSubscriber
	if h, ok := b.subs[d.msg.Topic]; ok {
		err = h(d.msg)
	}
	if err == nil {
		return
	}
	if d.msg.Attempt >= maxAttempts {
		for _, fn := range b.onDrop {
			fn(d.msg)
		}
		return
	}
	b.sched.After(retryDelay<<uint(d.msg.Attempt-1), d.fire)
}

var errNoSubscriber = errors.New("pubsub: no subscriber")
