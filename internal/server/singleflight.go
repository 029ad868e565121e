package server

import (
	"errors"
	"fmt"
	"sync"
)

// errComputePanic marks computations that died in a panic rather than
// returning an error: an internal fault, not a property of the request.
var errComputePanic = errors.New("internal computation failure")

// flightCall is one in-flight (or just-completed) upstream computation.
// done is closed exactly once, after val/err are final.
type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

// flightGroup implements single-flight request coalescing: concurrent
// computations for the same key share one execution. Unlike a synchronous
// singleflight, the computation runs in its own goroutine, so a waiter
// abandoning early (request timeout, client gone) never cancels the work
// for the callers still attached — nor the cache fill.
//
// The table is one map under one mutex, held only to register or
// unregister a key; the computation itself runs outside it.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do returns the call for key, spawning fn if this caller is the first.
// leader reports whether this caller started the computation; followers
// coalesce onto the existing one. The key is unregistered before done is
// closed, so once a caller observes completion a new request computes
// afresh (or hits the response cache fn filled) — in particular, an error
// result is never retained beyond its in-flight window: the next request
// after a transient failure retries rather than replaying the stale error.
func (g *flightGroup) do(key string, fn func() ([]byte, error)) (c *flightCall, leader bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()
	go func() {
		// This goroutine is outside net/http's per-connection recover, so
		// an unrecovered panic here would kill the whole process — and a
		// recover that skipped the bookkeeping below would leave every
		// waiter for this key hung. Convert panics to errors, always
		// unregister the key, always close done.
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("%w: %v", errComputePanic, r)
			}
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()
	return c, true
}
