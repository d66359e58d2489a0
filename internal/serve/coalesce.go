package serve

import (
	"context"
	"sync"
)

// call is one in-flight run. done closes when val and herr are set;
// after that they are immutable, so waiters read them without locks.
type call[V any] struct {
	done chan struct{}
	val  V
	herr *httpError
}

// flightGroup coalesces concurrent identical pieces of work onto one
// run (singleflight): the first requester for a key becomes the leader
// and runs fn; everyone else arriving before the leader finishes
// blocks on the same call and shares its result — a value or an error.
// The entry is removed when the leader completes, so a later request
// for the same key consults the cache the leader populated rather than
// running again. The server holds four: /v1/plan bodies and /v1/peak
// bodies by plan key (their results for one key are different bodies),
// prepared workloads by workload id, and templates by template key.
type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V] // lint:guardedby mu

	// onJoin, when set, runs as soon as a waiter attaches to an
	// existing call — before it blocks — so coalescing is observable
	// (metrics, flight events) while the leader is still running.
	onJoin func(key string)
}

func newFlightGroup[V any](onJoin func(key string)) *flightGroup[V] {
	return &flightGroup[V]{calls: make(map[string]*call[V]), onJoin: onJoin}
}

// do runs fn for key unless a run is already in flight, in which case
// it waits for that run. coalesced reports whether this caller joined
// an existing run. A waiter whose ctx expires before the leader
// finishes gets ctx.Err() mapped by the caller; the leader itself
// always runs to completion (runs are milliseconds and the result
// feeds the cache for everyone).
func (g *flightGroup[V]) do(ctx context.Context, key string, fn func() (V, *httpError)) (val V, herr *httpError, coalesced bool, err error) {
	g.mu.Lock()
	c, joined := g.calls[key]
	if !joined {
		c = &call[V]{done: make(chan struct{})}
		// If fn panics (it should not), waiters still unblock — with
		// this placeholder error rather than a zero result — and the key
		// is freed for the next request; the panic itself propagates to
		// net/http's handler recovery.
		c.herr = &httpError{status: 500, code: "internal", message: "run did not complete"}
		g.calls[key] = c
	}
	g.mu.Unlock()

	if joined {
		if g.onJoin != nil {
			g.onJoin(key)
		}
		select {
		case <-c.done:
			return c.val, c.herr, true, nil
		case <-ctx.Done():
			return val, nil, true, ctx.Err()
		}
	}

	defer func() {
		close(c.done)
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
	}()
	c.val, c.herr = fn()
	return c.val, c.herr, false, nil
}
