package serve

import (
	"context"
	"sync"
)

// planResult is what one leader's run produces and every coalesced
// waiter shares: either a response body (already cached) or an error.
type planResult struct {
	body []byte
	herr *httpError
}

// call is one in-flight run. done closes when res is set;
// after that res is immutable, so waiters read it without locks.
type call struct {
	done chan struct{}
	res  planResult
}

// flightGroup coalesces concurrent identical requests of one endpoint
// onto one run (singleflight): the first requester for a key becomes
// the leader and runs fn; everyone else arriving before the leader
// finishes blocks on the same call and shares its result. The entry
// is removed when the leader completes, so a later request for the
// same key consults the endpoint's cache (which the leader populated)
// rather than running again. /v1/plan and /v1/peak each hold their
// own group: their results for one key are different bodies.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*call // lint:guardedby mu

	// onJoin, when set, runs as soon as a waiter attaches to an
	// existing call — before it blocks — so coalescing is observable
	// (metrics, flight events) while the leader is still running.
	onJoin func(key string)
}

func newFlightGroup(onJoin func(key string)) *flightGroup {
	return &flightGroup{calls: make(map[string]*call), onJoin: onJoin}
}

// do runs fn for key unless a run is already in flight, in which case
// it waits for that run. coalesced reports whether this caller joined
// an existing run. A waiter whose ctx expires before the leader
// finishes gets ctx.Err() mapped by the caller; the leader itself
// always runs to completion (runs are milliseconds and the result
// feeds the cache for everyone).
func (g *flightGroup) do(ctx context.Context, key string, fn func() planResult) (res planResult, coalesced bool, err error) {
	g.mu.Lock()
	c, joined := g.calls[key]
	if !joined {
		c = &call{done: make(chan struct{})}
		// If fn panics (it should not), waiters still unblock — with
		// this placeholder error rather than a zero result — and the key
		// is freed for the next request; the panic itself propagates to
		// net/http's handler recovery.
		c.res = planResult{herr: &httpError{status: 500, code: "internal", message: "run did not complete"}}
		g.calls[key] = c
	}
	g.mu.Unlock()

	if joined {
		if g.onJoin != nil {
			g.onJoin(key)
		}
		select {
		case <-c.done:
			return c.res, true, nil
		case <-ctx.Done():
			return planResult{}, true, ctx.Err()
		}
	}

	defer func() {
		close(c.done)
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
	}()
	c.res = fn()
	return c.res, false, nil
}
