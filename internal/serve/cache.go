package serve

import (
	"sync"

	"tsplit/internal/obs"
)

// planCache is a content-addressed response cache: plan key →
// serialized response body, bounded by entry count with strict LRU
// eviction (pinned by a fake-clock test). A hit serves the stored
// bytes verbatim: cached responses are byte-identical to the miss
// that created them. The server holds one instance per endpoint —
// /v1/plan bodies and /v1/peak bodies — so neither kind of entry can
// displace the other; each instance reports under its own metric and
// flight-event names.
type planCache struct {
	mu    sync.Mutex
	lru   *lru[[]byte] // lint:guardedby mu
	bytes int64        // lint:guardedby mu — total cached body bytes

	names  cacheNames
	rec    *obs.Registry // thread-safe; not guarded
	flight *obs.Flight   // nil-safe; not guarded
}

// cacheNames are the metric series and flight-event kinds one
// planCache instance reports under, spelled out once so a lookup
// builds no strings.
type cacheNames struct {
	hits, misses, evictions, entries, bytes string // metric names
	hit, miss, evict                        string // flight-event kinds
	hitMsg, missMsg, evictMsg               string
}

// newPlanCache builds one instance. Its series and event kinds derive
// from a metric prefix (e.g. "tsplit_serve_cache"), a flight-event
// prefix (e.g. "serve.cache") and noun, the endpoint whose bodies it
// holds ("plan" or "peak").
func newPlanCache(capacity int, metric, event, noun string, reg *obs.Registry, flight *obs.Flight) *planCache {
	n := cacheNames{
		hits: metric + "_hits_total", misses: metric + "_misses_total", evictions: metric + "_evictions_total",
		entries: metric + "_entries", bytes: metric + "_bytes",
		hit: event + ".hit", miss: event + ".miss", evict: event + ".evict",
		hitMsg: "served cached " + noun, missMsg: "no cached " + noun,
		evictMsg: noun + " cache full: evicted LRU entry",
	}
	reg.SetHelp(n.hits, "/v1/"+noun+" requests served from the content-addressed "+noun+" cache.")
	reg.SetHelp(n.misses, "/v1/"+noun+" requests that required a run or a coalesced wait.")
	reg.SetHelp(n.evictions, "Bodies evicted from the "+noun+" cache (LRU).")
	reg.SetHelp(n.entries, "Response bodies resident in the "+noun+" cache.")
	reg.SetHelp(n.bytes, "Total bytes of the response bodies resident in the "+noun+" cache.")
	return &planCache{lru: newLRU[[]byte](capacity, 512), names: n, rec: reg, flight: flight}
}

// get returns the cached body for key, marking it most recently used.
// The caller must treat the returned slice as immutable.
func (c *planCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.get(key)
}

// lookup is get for a request's first probe: it also counts the hit or
// miss and records it in the flight ring. (The leader's post-admission
// double-check is a plain get — the request was already counted.)
func (c *planCache) lookup(key string) ([]byte, bool) {
	body, ok := c.get(key)
	if ok {
		c.rec.Add(c.names.hits, 1)
		c.flight.Record(c.names.hit, c.names.hitMsg, obs.L("key", key))
	} else {
		c.rec.Add(c.names.misses, 1)
		c.flight.Record(c.names.miss, c.names.missMsg, obs.L("key", key))
	}
	return body, ok
}

// put inserts a response body, evicting the least-recently-used entry
// when the cache is full, and refreshes the occupancy gauges.
// Re-putting an existing key (two coalesced leaders racing a cache
// clear) refreshes its body and recency.
func (c *planCache) put(key string, body []byte) {
	c.mu.Lock()
	out, displaced := c.lru.put(key, body)
	c.bytes += int64(len(body)) - int64(len(out.val))
	entries, bodyBytes := c.lru.len(), c.bytes
	c.mu.Unlock()
	c.rec.Set(c.names.entries, float64(entries))
	c.rec.Set(c.names.bytes, float64(bodyBytes))
	if displaced && out.key != key {
		c.rec.Add(c.names.evictions, 1)
		c.flight.Record(c.names.evict, c.names.evictMsg, obs.L("key", out.key))
	}
}

// stats reports entry count and total body bytes (for /healthz).
func (c *planCache) stats() (entries int, bodyBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.len(), c.bytes
}
