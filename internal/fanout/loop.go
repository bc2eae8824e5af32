package fanout

import (
	"sync"
	"time"
)

// Loop is a job that runs on wall time: the coordinators' rounds, the
// collector's sweeps, the balancer's probes and a site's clock poll. It
// calls its round every interval from one goroutine until Stop; a round
// that overruns the interval delays the next tick rather than queueing
// more (time.Ticker drops ticks a slow reader misses).
type Loop struct {
	once sync.Once
	stop chan struct{}
	done chan struct{}
}

// Every starts a loop that calls round every interval of wall time, the
// first call one interval from now. interval must be positive.
func Every(interval time.Duration, round func()) *Loop {
	l := &Loop{stop: make(chan struct{}), done: make(chan struct{})}
	tick := time.NewTicker(interval)
	go func() {
		defer close(l.done)
		// A live ticker keeps a testing/synctest bubble's fake clock running.
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
			}
			// A Stop that raced the tick wins: no round starts after it.
			select {
			case <-l.stop:
				return
			default:
				round()
			}
		}
	}()
	return l
}

// Stop ends the loop and returns once the round in flight, if any, has
// finished; no round starts after it. It may be called more than once,
// and on a nil Loop (a job that never started).
func (l *Loop) Stop() {
	if l == nil {
		return
	}
	l.once.Do(func() { close(l.stop) })
	<-l.done
}

// RoundDeadline is how long one round of a loop running every interval
// waits for each site: half the interval, floored at 100 ms. Half keeps a
// hung site from eating the round; the floor keeps ordinary HTTP jitter
// at millisecond test intervals from counting healthy sites as errors.
func RoundDeadline(interval time.Duration) time.Duration {
	return max(interval/2, 100*time.Millisecond)
}
