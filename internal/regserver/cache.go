package regserver

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultBestCacheEntries bounds the encoded-response cache: one entry
// is one pre-marshaled /v1/best body (a few hundred bytes to a few KB),
// so the default costs at most a few MB while covering every key of a
// realistically sized registry.
const DefaultBestCacheEntries = 4096

// strongETag derives the validator for an encoded response body. It is
// a strong ETag in the HTTP sense — equal tags imply byte-identical
// bodies — because it is a content hash of the exact bytes served.
func strongETag(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatch reports whether an If-None-Match header names the given
// ETag. The header is a comma-separated list of entity tags (or "*",
// which matches any current representation).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// cacheKey identifies one /v1/best answer: the exact query triple,
// which is exactly the registry key that produced it.
type cacheKey struct{ workload, target, dag string }

// respCache is the bounded LRU of pre-marshaled /v1/best response
// bodies. In the steady state — the fleet reuses far more schedules
// than it searches — a best query costs one map hit and one buffer
// copy instead of a registry lookup plus a JSON marshal, and a
// conditional GET costs ~0 body bytes.
//
// Freshness: fills are version-checked. A reader captures the
// registry's mutation version before reading the record; put inserts
// only if the version is still current under the cache lock. Writers
// bump the version before invalidating (registry.Add orders it that
// way), so a fill computed from a pre-write read can never be inserted
// after the write's invalidation has run — the classic stale-fill race
// is closed without holding the registry lock across the marshal.
type respCache struct {
	version func() uint64 // the registry's mutation version

	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element

	evictions atomic.Int64
}

type cacheEntry struct {
	key  cacheKey
	body []byte
	etag string
}

func newRespCache(max int, version func() uint64) *respCache {
	return &respCache{
		version: version,
		max:     max,
		ll:      list.New(),
		entries: map[cacheKey]*list.Element{},
	}
}

// get returns the cached body and ETag, marking the entry most
// recently used.
func (c *respCache) get(k cacheKey) (body []byte, etag string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, "", false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.body, e.etag, true
}

// put inserts a fill computed at registry version fillVersion; the
// insert is dropped if any registry mutation has happened since, so a
// racing publish can never leave a stale body behind (its invalidation
// ran before or will run after — either way the check or the
// invalidation removes the stale answer).
func (c *respCache) put(k cacheKey, body []byte, etag string, fillVersion uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.version() != fillVersion {
		return
	}
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.body, e.etag = body, etag
		return
	}
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, body: body, etag: etag})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// invalidate drops the entry for one exact query triple.
func (c *respCache) invalidate(k cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.ll.Remove(el)
		delete(c.entries, k)
	}
}

// len reports the current entry count.
func (c *respCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
