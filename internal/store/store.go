// Package store is the persistent tier of the daemon's
// content-addressed report cache: a disk-backed map from canonical
// spec hash to one compressed, checksummed record file. It exists so
// a simulation is computed once, ever — reports survive daemon
// restarts and grow past RAM, and in cluster mode every daemon's
// store deduplicates work for the whole fleet.
//
// Layout and guarantees:
//
//   - Records live under a two-level sharded tree, dir/<hh>/<hash>.awr
//     with hh the first two hex digits of the hash, so no directory
//     grows unboundedly.
//   - Writes go to a temp file in the record's shard directory, are
//     fsynced, then atomically renamed into place — a reader never
//     observes a half-written record, and a crash mid-write leaves
//     only a temp file.
//   - Open scans the tree, deletes crash leftovers (temp files), and
//     rebuilds the index from the surviving records, oldest
//     modification time first.
//   - Every record embeds the SHA-256 and length of its payload; Get
//     verifies both and silently discards a record that fails (torn
//     by disk corruption, say), reporting a miss.
//   - A byte budget is enforced by LRU eviction: Get refreshes a
//     record's file mtime, so recency survives restarts too.
package store

import (
	"bytes"
	"compress/gzip"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// magic versions the record format; bump it on incompatible
	// changes so old stores read as empty rather than corrupt.
	magic = "AWRS1\n"
	// headerLen is magic + payload SHA-256 + big-endian payload length.
	headerLen = len(magic) + sha256.Size + 8
	// suffix marks committed record files.
	suffix = ".awr"
	// tmpPrefix marks in-progress writes; Open deletes leftovers.
	tmpPrefix = "tmp-"
)

// Stats is a snapshot of the store's counters and occupancy.
type Stats struct {
	Hits      int64 // records served (verified)
	Misses    int64 // lookups that found nothing
	Entries   int64 // committed records currently indexed
	Bytes     int64 // total record file bytes on disk
	Budget    int64 // eviction threshold (0 = unlimited)
	Evictions int64 // records removed by the byte budget
	Corrupt   int64 // records discarded by verification
}

// Store is a disk-backed content-addressed record store. Safe for
// concurrent use. Values are immutable once put: a hash maps to the
// exact payload bytes forever, so equal canonical specs always read
// back bit-identical reports.
type Store struct {
	dir    string
	budget int64 // 0 means unlimited

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	stats   Stats
}

// record is one indexed file; size is the on-disk file size (what the
// budget meters), not the payload size.
type record struct {
	hash string
	size int64
}

// Open opens (creating if needed) the store rooted at dir with the
// given byte budget: budget == 0 means a 1 GiB default, negative
// means unlimited. It removes temp files left by a crash, rebuilds
// the index from the committed records (oldest mtime = least recently
// used), and evicts immediately if the surviving records already
// exceed the budget.
func Open(dir string, budget int64) (*Store, error) {
	if budget == 0 {
		budget = 1 << 30
	}
	if budget < 0 {
		budget = 0 // unlimited
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		budget:  budget,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover is the crash-safe opening scan.
func (s *Store) recover() error {
	type found struct {
		record
		mtime time.Time
	}
	var recs []found
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			// A write that never reached its rename: discard.
			return os.Remove(path)
		}
		hash, ok := strings.CutSuffix(name, suffix)
		if !ok || !validHash(hash) {
			return nil // not ours; leave it alone
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		recs = append(recs, found{record{hash: hash, size: info.Size()}, info.ModTime()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: recovery scan: %w", err)
	}
	// Oldest first, hash as a deterministic tiebreak for equal mtimes;
	// pushing front leaves the newest records most recently used.
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].mtime.Equal(recs[j].mtime) {
			return recs[i].mtime.Before(recs[j].mtime)
		}
		return recs[i].hash < recs[j].hash
	})
	for i := range recs {
		r := recs[i].record
		s.entries[r.hash] = s.lru.PushFront(&r)
		s.stats.Bytes += r.size
	}
	s.evictLocked()
	return nil
}

// validHash accepts the hex SHA-256 content addresses the service
// produces; anything else in the tree is not a record.
func validHash(hash string) bool {
	if len(hash) != sha256.Size*2 {
		return false
	}
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+suffix)
}

// Get returns the payload stored under hash. The record is verified
// against its embedded length and SHA-256; a record that fails —
// torn, truncated, or bit-rotted — is deleted and reported as a miss,
// so corruption degrades to recomputation, never to wrong bytes.
func (s *Store) Get(hash string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[hash]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	path := s.path(hash)
	payload, err := readRecord(path)
	if err != nil {
		s.dropLocked(el)
		s.stats.Corrupt++
		s.stats.Misses++
		os.Remove(path)
		return nil, false
	}
	s.stats.Hits++
	s.lru.MoveToFront(el)
	// Best-effort recency persistence: the file's mtime is the LRU
	// clock the next Open sorts by.
	now := time.Now()
	os.Chtimes(path, now, now)
	return payload, true
}

// Contains reports whether hash is indexed, without reading or
// touching the record.
func (s *Store) Contains(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[hash]
	return ok
}

// Put stores payload under hash. Content addressing makes records
// immutable: putting an existing hash only refreshes its recency. A
// record bigger than the whole budget is not stored (it would evict
// everything for nothing). The write is atomic — temp file, fsync,
// rename — so a crash at any point leaves either the old state or the
// complete new record.
func (s *Store) Put(hash string, payload []byte) error {
	if !validHash(hash) {
		return fmt.Errorf("store: invalid content address %q", hash)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[hash]; ok {
		s.lru.MoveToFront(el)
		return nil
	}
	data, err := encodeRecord(payload)
	if err != nil {
		return err
	}
	if s.budget > 0 && int64(len(data)) > s.budget {
		return nil
	}
	if err := s.writeAtomic(hash, data); err != nil {
		return err
	}
	r := &record{hash: hash, size: int64(len(data))}
	s.entries[hash] = s.lru.PushFront(r)
	s.stats.Bytes += r.size
	s.evictLocked()
	return nil
}

// writeAtomic commits data as hash's record file via temp + rename.
func (s *Store) writeAtomic(hash string, data []byte) error {
	shard := filepath.Join(s.dir, hash[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(shard, tmpPrefix+hash+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, s.path(hash))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", hash[:12], werr)
	}
	return nil
}

// evictLocked removes least-recently-used records until the byte
// budget holds. Callers hold s.mu.
func (s *Store) evictLocked() {
	if s.budget <= 0 {
		return
	}
	for s.stats.Bytes > s.budget {
		oldest := s.lru.Back()
		if oldest == nil {
			return
		}
		r := oldest.Value.(*record)
		os.Remove(s.path(r.hash))
		s.dropLocked(oldest)
		s.stats.Evictions++
	}
}

// dropLocked removes an element from the index and byte accounting
// (not from disk). Callers hold s.mu.
func (s *Store) dropLocked(el *list.Element) {
	r := el.Value.(*record)
	s.lru.Remove(el)
	delete(s.entries, r.hash)
	s.stats.Bytes -= r.size
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = int64(len(s.entries))
	st.Budget = s.budget
	return st
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of committed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close releases the store. The on-disk state is always consistent,
// so Close has nothing to flush; it exists so callers express
// lifecycle intent (and so a future write-behind tier has a hook).
func (s *Store) Close() error { return nil }

// encodeRecord frames payload as a record: magic, payload SHA-256,
// payload length, gzip-compressed payload.
func encodeRecord(payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	sum := sha256.Sum256(payload)
	buf.Write(sum[:])
	var lenBytes [8]byte
	binary.BigEndian.PutUint64(lenBytes[:], uint64(len(payload)))
	buf.Write(lenBytes[:])
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := zw.Write(payload); err != nil {
		return nil, fmt.Errorf("store: compressing record: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("store: compressing record: %w", err)
	}
	return buf.Bytes(), nil
}

// errCorrupt is the verification failure readRecord reports; Get
// turns it into a discard-and-miss.
var errCorrupt = errors.New("store: corrupt record")

// readRecord reads one record file and decodes it with decodeRecord.
func readRecord(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeRecord(data)
}

// decodeRecord fully verifies a record's bytes: magic, exact payload
// length, and payload SHA-256. It returns the payload, or errCorrupt.
func decodeRecord(data []byte) ([]byte, error) {
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		return nil, errCorrupt
	}
	wantSum := data[len(magic) : len(magic)+sha256.Size]
	wantLen := binary.BigEndian.Uint64(data[len(magic)+sha256.Size : headerLen])
	zr, err := gzip.NewReader(bytes.NewReader(data[headerLen:]))
	if err != nil {
		return nil, errCorrupt
	}
	payload, err := io.ReadAll(io.LimitReader(zr, int64(wantLen)+1))
	if err != nil || zr.Close() != nil {
		return nil, errCorrupt
	}
	if uint64(len(payload)) != wantLen {
		return nil, errCorrupt
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], wantSum) {
		return nil, errCorrupt
	}
	return payload, nil
}
