package serve

import "container/list"

// lruEntry is one key/value pair of an lru.
type lruEntry[V any] struct {
	key string
	val V
}

// lru is a map bounded by entry count with strict least-recently-used
// eviction: every get and put moves the entry to the front of a list
// and eviction always removes the back, so the eviction sequence is a
// deterministic function of the access sequence. It is not safe for
// concurrent use; the caches that embed it hold their own mutex.
type lru[V any] struct {
	cap     int
	entries map[string]*list.Element
	order   list.List // front: most recently used; values are lruEntry[V]
}

// newLRU returns an empty lru holding at most capacity entries, or
// fallback entries when capacity is not positive.
func newLRU[V any](capacity, fallback int) *lru[V] {
	if capacity <= 0 {
		capacity = fallback
	}
	return &lru[V]{cap: capacity, entries: make(map[string]*list.Element)}
}

// get returns the value under key, marking it most recently used.
func (l *lru[V]) get(key string) (V, bool) {
	e, ok := l.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(e)
	return e.Value.(lruEntry[V]).val, true
}

// put stores val under key as the most recently used entry. It returns
// the entry that left to make room, if one did: key's previous value
// on a re-put, or the least recently used entry when a new key took
// the lru past its capacity.
func (l *lru[V]) put(key string, val V) (out lruEntry[V], displaced bool) {
	if e, ok := l.entries[key]; ok {
		out = e.Value.(lruEntry[V])
		e.Value = lruEntry[V]{key, val}
		l.order.MoveToFront(e)
		return out, true
	}
	l.entries[key] = l.order.PushFront(lruEntry[V]{key, val})
	if len(l.entries) <= l.cap {
		return out, false
	}
	out = l.order.Remove(l.order.Back()).(lruEntry[V])
	delete(l.entries, out.key)
	return out, true
}

// len reports the number of entries held.
func (l *lru[V]) len() int { return len(l.entries) }
