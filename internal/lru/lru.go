// Package lru provides the bounded least-recently-used cache behind the
// server's response cache and the Engine's case-study and planner memos:
// one mutex, one map and one recency list.
//
// A hit is a map lookup and a list splice under the lock: about 50 ns
// uncontended on a 2-core Xeon, against about 20 µs for a whole cached
// server request, so one lock is not where a served request spends its
// time.
package lru

import "sync"

// Entry is one key/value pair from a cache dump.
type Entry[V any] struct {
	Key string
	Val V
}

// node is one intrusive doubly-linked recency-list element. The list is
// embedded directly in the cache entries (no container/list interface
// boxing): head side = most recent, tail side = least recent.
type node[V any] struct {
	key        string
	val        V
	prev, next *node[V]
}

// Cache is a bounded LRU cache, safe for concurrent use. Every operation
// takes the one cache-wide mutex.
type Cache[V any] struct {
	mu         sync.Mutex
	capacity   int
	items      map[string]*node[V]
	head, tail node[V] // list sentinels: head.next = MRU, tail.prev = LRU
	evictions  int64
}

// New builds a cache holding at most capacity entries (at least one).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache[V]{capacity: capacity, items: make(map[string]*node[V], capacity)}
	c.head.next = &c.tail
	c.tail.prev = &c.head
	return c
}

func (c *Cache[V]) unlink(n *node[V]) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

func (c *Cache[V]) pushFront(n *node[V]) {
	n.prev = &c.head
	n.next = c.head.next
	c.head.next.prev = n
	c.head.next = n
}

// insert links a new entry as most recent, then drops least-recent entries
// until the cache fits its capacity. The caller holds mu.
func (c *Cache[V]) insert(key string, val V) {
	n := &node[V]{key: key, val: val}
	c.items[key] = n
	c.pushFront(n)
	for len(c.items) > c.capacity {
		oldest := c.tail.prev
		c.unlink(oldest)
		delete(c.items, oldest.key)
		c.evictions++
	}
}

// Get returns the cached value and refreshes its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Add inserts (or refreshes) a value, evicting the least-recently-used
// entry beyond capacity.
func (c *Cache[V]) Add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[key]; ok {
		n.val = val
		c.unlink(n)
		c.pushFront(n)
		return
	}
	c.insert(key, val)
}

// GetOrCreate returns the value for key, calling create under the lock to
// insert one on a miss. Concurrent callers for the same key are guaranteed
// the same value — the memoization contract the Engine's build-once
// entries rely on. created reports whether this call inserted. create must
// be cheap (allocate a handle, not compute a result): it runs with the
// cache locked.
func (c *Cache[V]) GetOrCreate(key string, create func() V) (v V, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[key]; ok {
		c.unlink(n)
		c.pushFront(n)
		return n.val, false
	}
	v = create()
	c.insert(key, v)
	return v, true
}

// Len reports the live entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Capacity is the entry bound the cache was built with.
func (c *Cache[V]) Capacity() int { return c.capacity }

// Evictions counts the entries dropped to stay within capacity over the
// cache's lifetime.
func (c *Cache[V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Dump returns every entry least-recent first. Re-adding the dump in order
// into an empty cache of the same capacity reproduces the recency order
// exactly, so both caches evict the same key next — the snapshot-
// persistence contract.
func (c *Cache[V]) Dump() []Entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[V], 0, len(c.items))
	for n := c.tail.prev; n != &c.head; n = n.prev {
		out = append(out, Entry[V]{Key: n.key, Val: n.val})
	}
	return out
}
