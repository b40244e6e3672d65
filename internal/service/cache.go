package service

import (
	"container/list"

	"awakemis/internal/store"
)

// tieredCache layers the in-memory LRU over an optional persistent
// content-addressed store: hot entries are served from RAM, the disk
// tier survives restarts and grows past the memory budget. The two
// tiers are deliberately exposed separately — the Server consults
// memory under its mutex on every submission but checks disk only
// after the in-flight index (no file I/O for coalesced duplicates),
// and persists to disk outside the mutex (gzip + fsync must not
// stall submissions).
//
// Every cached value is json.Marshal output, compact and HTML-escaped:
// the worker's encode of its Report, the store's checksum-verified copy
// of such bytes, or a peer daemon's report, which that daemon cached
// under the same rule. The job handlers rely on it to write the bytes
// into a response as they are (marshalJob).
type tieredCache struct {
	mem  *reportCache
	disk *store.Store // nil means memory-only
}

func newTieredCache(memBudget int64, disk *store.Store) *tieredCache {
	return &tieredCache{mem: newReportCache(memBudget), disk: disk}
}

func (t *tieredCache) getMem(hash string) ([]byte, bool) { return t.mem.get(hash) }

// getDisk consults the persistent tier, promoting a hit into the
// in-memory LRU so repeats are served from RAM. The store verifies
// every record against its embedded checksum, so a promoted value is
// exactly the bytes the original run produced.
func (t *tieredCache) getDisk(hash string) ([]byte, bool) {
	if t.disk == nil {
		return nil, false
	}
	data, ok := t.disk.Get(hash)
	if ok {
		t.mem.put(hash, data)
	}
	return data, ok
}

func (t *tieredCache) putMem(hash string, value []byte) { t.mem.put(hash, value) }

func (t *tieredCache) putDisk(hash string, value []byte) error {
	if t.disk == nil {
		return nil
	}
	return t.disk.Put(hash, value)
}

func (t *tieredCache) hasDisk() bool { return t.disk != nil }

// reportCache is a byte-budgeted LRU of marshaled Reports keyed by
// canonical spec hash. Values are immutable wire bytes: a hit serves
// exactly the bytes the original run produced, so every caller of an
// equal spec sees a bit-identical Report. Not safe for concurrent use;
// the Server guards it with its mutex.
type reportCache struct {
	budget  int64 // max total value bytes (0 disables caching)
	bytes   int64 // current total value bytes
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	evicted int64      // lifetime eviction count
}

type cacheEntry struct {
	hash  string
	value []byte
}

func newReportCache(budget int64) *reportCache {
	return &reportCache{
		budget:  budget,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// get returns the cached bytes for hash and marks the entry most
// recently used.
func (c *reportCache) get(hash string) ([]byte, bool) {
	el, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).value, true
}

// put inserts value under hash, evicting least-recently-used entries
// until the byte budget holds. A value larger than the whole budget
// is not cached at all (it would only evict everything for nothing).
func (c *reportCache) put(hash string, value []byte) {
	if int64(len(value)) > c.budget {
		return
	}
	if el, ok := c.entries[hash]; ok { // lost a race with an equal run
		c.bytes += int64(len(value)) - int64(len(el.Value.(*cacheEntry).value))
		el.Value.(*cacheEntry).value = value
		c.lru.MoveToFront(el)
	} else {
		c.entries[hash] = c.lru.PushFront(&cacheEntry{hash: hash, value: value})
		c.bytes += int64(len(value))
	}
	for c.bytes > c.budget {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		entry := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.entries, entry.hash)
		c.bytes -= int64(len(entry.value))
		c.evicted++
	}
}

// len reports the number of cached entries.
func (c *reportCache) len() int { return len(c.entries) }
