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
// the message and triggers redelivery until MaxAttempts is reached.
type Handler func(msg Message) error

// LatencyFunc returns the delivery latency for a message of the given
// payload size published to topic. The platform wires this to the network
// model using the publisher's and subscriber's regions.
type LatencyFunc func(topic string, size int) time.Duration

// Config tunes delivery behaviour.
type Config struct {
	MaxAttempts int           // total delivery attempts before drop (default 5)
	RetryDelay  time.Duration // base redelivery backoff (default 1s, doubled per attempt)
	// DuplicateProb injects duplicate deliveries with this probability
	// to exercise at-least-once semantics in tests. Default 0.
	DuplicateProb float64
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = time.Second
	}
	return c
}

// Broker routes messages from publishers to topic subscribers on virtual
// time. Broker is not safe for concurrent use; it belongs to the
// single-threaded simulation like the scheduler itself.
type Broker struct {
	sched     *simclock.Scheduler
	latency   LatencyFunc
	cfg       Config
	rng       *simclock.Rand
	subs      map[string]Handler
	published uint64
	delivered uint64
	dropped   uint64
	inflight  int
	onDrop    []func(Message)
}

// NewBroker returns a broker on the given scheduler. latency may be nil,
// in which case delivery is immediate (zero virtual delay).
func NewBroker(sched *simclock.Scheduler, latency LatencyFunc, cfg Config, rng *simclock.Rand) *Broker {
	if latency == nil {
		latency = func(string, int) time.Duration { return 0 }
	}
	if rng == nil {
		rng = simclock.NewRand(1)
	}
	return &Broker{
		sched:   sched,
		latency: latency,
		cfg:     cfg.withDefaults(),
		rng:     rng,
		subs:    make(map[string]Handler),
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

// HasSubscriber reports whether topic has a live subscriber.
func (b *Broker) HasSubscriber(topic string) bool {
	_, ok := b.subs[topic]
	return ok
}

// OnDrop registers a callback invoked when a message exhausts its
// delivery attempts. The executor uses this to surface lost invocations.
// Multiple callbacks may be registered; all run on every drop.
func (b *Broker) OnDrop(fn func(Message)) { b.onDrop = append(b.onDrop, fn) }

// Publish schedules delivery of data to topic after the configured
// latency. Publishing to a topic with no subscriber is not an immediate
// error: the subscriber may appear before delivery (deployment racing
// traffic); if none exists at delivery time the attempt counts and the
// message retries, matching pub/sub redelivery behaviour.
func (b *Broker) Publish(topic string, data []byte) error {
	return b.PublishAfter(topic, data, b.latency(topic, len(data)))
}

// PublishAfter is Publish with an explicit delivery latency, used when the
// caller has already computed network time from the publisher's region.
func (b *Broker) PublishAfter(topic string, data []byte, latency time.Duration) error {
	if topic == "" {
		return fmt.Errorf("pubsub: empty topic")
	}
	b.published++
	b.scheduleDelivery(topic, data, latency)
	if b.cfg.DuplicateProb > 0 && b.rng.Bool(b.cfg.DuplicateProb) {
		b.scheduleDelivery(topic, data, latency+b.cfg.RetryDelay)
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
	b.inflight++
	b.sched.After(after, d.fire)
}

// attempt delivers the message once; nacked or without a subscriber it
// backs off and retries until MaxAttempts, then drops.
func (d *delivery) attempt() {
	b := d.b
	b.inflight--
	d.msg.Attempt++
	err := errNoSubscriber
	if h, ok := b.subs[d.msg.Topic]; ok {
		err = h(d.msg)
	}
	if err == nil {
		b.delivered++
		return
	}
	if d.msg.Attempt >= b.cfg.MaxAttempts {
		b.dropped++
		for _, fn := range b.onDrop {
			fn(d.msg)
		}
		return
	}
	b.inflight++
	b.sched.After(b.cfg.RetryDelay<<uint(d.msg.Attempt-1), d.fire)
}

var errNoSubscriber = errors.New("pubsub: no subscriber")

// Stats reports cumulative publish/deliver/drop counts and in-flight
// deliveries.
func (b *Broker) Stats() (published, delivered, dropped uint64, inflight int) {
	return b.published, b.delivered, b.dropped, b.inflight
}
