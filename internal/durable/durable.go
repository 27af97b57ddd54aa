// Package durable gives cdpfd crash-proof sessions: a per-shard write-ahead
// log of every admitted observation batch, periodic per-session snapshots of
// full tracker state, and a recovery path that rebuilds every session to the
// exact pre-crash state — byte-identical traces, verified against the
// offline twin (DESIGN.md "Durability and crash recovery").
//
// The layering contract: this package knows how to persist and read bytes;
// it knows nothing about HTTP, sessions, or trackers beyond the state
// structs it serializes. The serving layer decides when to log, when to
// snapshot, and whether a snapshot is trustworthy for a given WAL history.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FsyncPolicy controls when WAL appends reach stable storage.
//
// A kill -9 (the failure mode the crash-recovery test exercises) loses
// nothing under any policy: appends are single unbuffered Write syscalls, so
// the page cache holds every acknowledged byte. fsync only matters for
// power loss / kernel panic.
type FsyncPolicy int

const (
	// FsyncInterval (default): a background flusher fsyncs dirty segments
	// every fsyncPeriod. Bounded loss window on power failure, negligible
	// per-append cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways: fsync after every append. Maximum durability.
	FsyncAlways
	// FsyncNone: never fsync. Page cache only; fastest.
	FsyncNone
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or none)", s)
	}
}

// Options configures a Store.
type Options struct {
	// Dir is the durability root; wal/ and snap/ are created beneath it.
	Dir string
	// Fsync selects the WAL sync policy (default FsyncInterval).
	Fsync FsyncPolicy
}

// fsyncPeriod is the background flush period under FsyncInterval.
const fsyncPeriod = 100 * time.Millisecond

// Store owns a durability directory for the lifetime of one daemon boot.
// One WAL generation is claimed at Open; each shard lazily opens its segment
// on first log call. All methods are safe for concurrent use.
type Store struct {
	dir     string
	gen     uint64
	policy  FsyncPolicy
	c       *Counters
	mu      sync.Mutex
	writers map[int]*walWriter
	closed  bool
	stopCh  chan struct{}
	flushWG sync.WaitGroup
	snapBuf []byte // reused snapshot encode buffer, guarded by snapMu
	snapMu  sync.Mutex
}

// Open claims the durability directory for writing: creates wal/ and snap/,
// scans every existing segment (truncating torn tails), claims the next WAL
// generation, and returns what previous boots left behind so the serving
// layer can rebuild sessions. The returned Recovery is a snapshot of disk
// state at open time; the Store appends only to the new generation.
func Open(opt Options) (*Store, *Recovery, error) {
	if opt.Dir == "" {
		return nil, nil, fmt.Errorf("durable: Options.Dir is required")
	}
	c := new(Counters)
	for _, sub := range []string{walDirName, snapDirName} {
		if err := os.MkdirAll(filepath.Join(opt.Dir, sub), 0o755); err != nil {
			return nil, nil, err
		}
	}
	rec, err := load(opt.Dir, c, true)
	if err != nil {
		return nil, nil, err
	}
	gen, err := maxGeneration(opt.Dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:     opt.Dir,
		gen:     gen + 1,
		policy:  opt.Fsync,
		c:       c,
		writers: make(map[int]*walWriter),
		stopCh:  make(chan struct{}),
	}
	if s.policy == FsyncInterval {
		s.flushWG.Add(1)
		go s.flushLoop()
	}
	return s, rec, nil
}

// Counters exposes the store's metrics for the serving layer to publish.
func (s *Store) Counters() *Counters { return s.c }

// writer returns (lazily opening) the current generation's segment writer
// for a shard.
func (s *Store) writer(shard int) (*walWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("durable: store closed")
	}
	if w := s.writers[shard]; w != nil {
		return w, nil
	}
	w, err := openWalWriter(s.dir, s.gen, shard)
	if err != nil {
		s.c.add(&s.c.WALErrors)
		return nil, err
	}
	s.writers[shard] = w
	return w, nil
}

// LogCreate appends a session-create record to the shard's segment. Called
// by the serving layer before the session becomes reachable, so the WAL
// never holds a batch without its create record.
func (s *Store) LogCreate(shard int, id string, specJSON []byte) error {
	w, err := s.writer(shard)
	if err != nil {
		return err
	}
	return w.logCreate(&CreateRecord{ID: id, SpecJSON: specJSON}, s.policy == FsyncAlways, s.c)
}

// LogBatch appends an admitted observation batch, called by the shard
// goroutine immediately before the batch is stepped — so on recovery the
// WAL always dominates the applied history.
func (s *Store) LogBatch(shard int, r *BatchRecord) error {
	w, err := s.writer(shard)
	if err != nil {
		return err
	}
	return w.logBatch(r, s.policy == FsyncAlways, s.c)
}

// LogImport appends a migrated-in session's handoff snapshot, called by the
// serving layer before the imported session becomes reachable. The snapshot
// lives in the WAL itself, so recovery of a session whose batch history
// starts mid-run never depends on a snapshot file. Migration records are
// synced eagerly (policy permitting): acknowledging an import that a power
// failure could erase would lose the session on both sides of the handoff.
func (s *Store) LogImport(shard int, snap *Snapshot) error {
	w, err := s.writer(shard)
	if err != nil {
		return err
	}
	return w.logImport(snap.encode(nil), s.policy != FsyncNone, s.c)
}

// LogForget appends a session-exported record: the session was handed to
// another backend, and recovery on this daemon must skip it.
func (s *Store) LogForget(shard int, id string) error {
	w, err := s.writer(shard)
	if err != nil {
		return err
	}
	return w.logForget(&ForgetRecord{ID: id}, s.policy != FsyncNone, s.c)
}

// SaveSnapshot writes a session snapshot via temp-file-and-rename, so the
// previous snapshot survives any crash mid-write.
func (s *Store) SaveSnapshot(snap *Snapshot) error {
	start := time.Now()
	err := s.saveSnapshot(snap)
	s.c.addN(&s.c.SnapshotNanos, time.Since(start).Nanoseconds())
	if err != nil {
		s.c.add(&s.c.SnapshotErrors)
		return err
	}
	s.c.add(&s.c.Snapshots)
	return nil
}

func (s *Store) saveSnapshot(snap *Snapshot) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("durable: store closed")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.snapBuf = snap.encode(s.snapBuf)
	path := snapshotPath(s.dir, snap.ID)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(s.snapBuf); err != nil {
		tmp.Close()
		return err
	}
	if s.policy != FsyncNone {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// flushLoop periodically fsyncs dirty segments under FsyncInterval.
func (s *Store) flushLoop() {
	defer s.flushWG.Done()
	t := time.NewTicker(fsyncPeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.mu.Lock()
			ws := make([]*walWriter, 0, len(s.writers))
			for _, w := range s.writers {
				ws = append(ws, w)
			}
			s.mu.Unlock()
			for _, w := range ws {
				_ = w.flush(s.c)
			}
		}
	}
}

// Close flushes and closes every segment. The directory can then be opened
// again (a new generation) by a later boot.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ws := make([]*walWriter, 0, len(s.writers))
	for _, w := range s.writers {
		ws = append(ws, w)
	}
	s.mu.Unlock()
	close(s.stopCh)
	s.flushWG.Wait()
	var first error
	for _, w := range ws {
		if s.policy != FsyncNone {
			if err := w.flush(s.c); err != nil && first == nil {
				first = err
			}
		}
		if err := w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
