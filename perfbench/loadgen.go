package main

import (
	"context"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request as the client saw it. Times are
// offsets from the schedule's start; latency counts from due, so a
// stall also charges the requests queued behind it.
type sample struct {
	due, enq, sent, done time.Duration
	err                  error
}

func (s sample) latency() time.Duration  { return s.done - s.due }
func (s sample) sendWait() time.Duration { return s.sent - s.due }
func (s sample) late() time.Duration     { return s.enq - s.due }
func (s sample) service() time.Duration  { return s.done - s.sent }

// runOpen issues request i at offset dues[i] (sorted) from now, whatever
// the progress of earlier requests. Arrivals wait in an unbounded
// client-side queue (never dropped) for one of conns workers, each with
// at most one request in flight, so at most conns connections are used.
func runOpen(ctx context.Context, conns int, dues []time.Duration, do func(ctx context.Context, i int) error) []sample {
	out := make([]sample, len(dues))
	// Buffered to the number of sends, so the scheduler never blocks:
	// the backlog is the channel's length.
	queue := make(chan int, len(dues))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].sent = time.Since(start)
				out[i].err = do(ctx, i)
				out[i].done = time.Since(start)
			}
		}()
	}
	for i, due := range dues {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = due
		out[i].enq = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// evenDues spaces n arrivals at a fixed rate, starting at offset 0.
func evenDues(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// countingTransport counts HTTP round trips, so retries hidden inside the
// SDK would show as round trips beyond the logical calls made.
type countingTransport struct {
	base  http.RoundTripper
	trips atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	return t.base.RoundTrip(r)
}

// newHTTPClient returns a client that opens at most conns connections
// to any one host.
func newHTTPClient(conns int) (*http.Client, *countingTransport) {
	tr := &countingTransport{base: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr
}
