package serve

import (
	"sync"

	"tsplit/internal/obs"
)

// planCache is the content-addressed response cache: plan key →
// serialized response body, bounded by entry count with strict LRU
// eviction (pinned by a fake-clock test). A hit serves the stored
// bytes verbatim: cached responses are byte-identical to the miss
// that created them.
type planCache struct {
	mu    sync.Mutex
	lru   *lru[[]byte] // lint:guardedby mu
	bytes int64        // lint:guardedby mu — total cached body bytes

	rec    obs.Recorder // thread-safe; not guarded
	flight *obs.Flight  // nil-safe; not guarded
}

func newPlanCache(capacity int, rec obs.Recorder, flight *obs.Flight) *planCache {
	return &planCache{lru: newLRU[[]byte](capacity, 512), rec: rec, flight: flight}
}

// get returns the cached body for key, marking it most recently used.
// The caller must treat the returned slice as immutable.
func (c *planCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.get(key)
}

// put inserts a response body, evicting the least-recently-used entry
// when the cache is full. Re-putting an existing key (two coalesced
// leaders racing a cache clear) refreshes its body and recency.
func (c *planCache) put(key string, body []byte) {
	c.mu.Lock()
	out, displaced := c.lru.put(key, body)
	c.bytes += int64(len(body)) - int64(len(out.val))
	c.mu.Unlock()
	if displaced && out.key != key {
		if c.rec != nil {
			c.rec.Add("tsplit_serve_cache_evictions_total", 1)
		}
		c.flight.Record("serve.cache.evict", "plan cache full: evicted LRU entry", obs.L("key", out.key))
	}
}

// stats reports entry count and total body bytes (for /healthz and
// metrics gauges).
func (c *planCache) stats() (entries int, bodyBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.len(), c.bytes
}
