package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
)

// Metrics is the daemon's instrumentation, exported in Prometheus text
// format from /metrics. Everything is stdlib: counters and gauges are
// atomics, the latency histogram uses fixed exponential buckets under a
// mutex. A nil *Metrics is valid and records nothing, so library code can
// instrument unconditionally.
type Metrics struct {
	sessionsCreated   atomic.Int64
	sessionsCompleted atomic.Int64
	sessionsLive      atomic.Int64
	sessionsExported  atomic.Int64
	sessionsImported  atomic.Int64
	stepsTotal        atomic.Int64

	mu       sync.Mutex
	rejected map[string]int64 // reason -> count
	lat      Histogram

	// queueDepth is read live at scrape time.
	queueDepth func() int

	// durability, when non-nil, is the durable store's counter block,
	// re-exported on /metrics alongside the serving metrics.
	durability *durable.Counters
}

// NewMetrics returns an empty registry. queueDepth, when non-nil, is sampled
// at scrape time for the cdpfd_queue_depth gauge.
func NewMetrics(queueDepth func() int) *Metrics {
	return &Metrics{rejected: make(map[string]int64), queueDepth: queueDepth}
}

// SetQueueDepthFunc installs the queue-depth sampler after construction —
// the registry is built before the manager it observes (the manager wants
// the registry in its config), so the gauge closure arrives late. Call it
// before serving traffic.
func (m *Metrics) SetQueueDepthFunc(f func() int) {
	if m != nil {
		m.queueDepth = f
	}
}

// SetDurability installs the durable store's counters for exposition.
func (m *Metrics) SetDurability(c *durable.Counters) {
	if m != nil {
		m.durability = c
	}
}

func (m *Metrics) sessionCreated() {
	if m == nil {
		return
	}
	m.sessionsCreated.Add(1)
	m.sessionsLive.Add(1)
}

func (m *Metrics) sessionCompleted() {
	if m == nil {
		return
	}
	m.sessionsCompleted.Add(1)
	m.sessionsLive.Add(-1)
}

// sessionExported records a live session leaving by migration.
func (m *Metrics) sessionExported() {
	if m == nil {
		return
	}
	m.sessionsExported.Add(1)
	m.sessionsLive.Add(-1)
}

// sessionImported records a session arriving by migration; a handoff whose
// run is already complete goes straight to the finished archive and never
// counts as live.
func (m *Metrics) sessionImported(done bool) {
	if m == nil {
		return
	}
	m.sessionsImported.Add(1)
	if !done {
		m.sessionsLive.Add(1)
	}
}

func (m *Metrics) stepDone(d time.Duration) {
	if m == nil {
		return
	}
	m.stepsTotal.Add(1)
	m.mu.Lock()
	m.lat.Observe(d.Seconds())
	m.mu.Unlock()
}

func (m *Metrics) reject(reason string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.rejected[reason]++
	m.mu.Unlock()
}

// Steps returns the number of filter iterations stepped so far.
func (m *Metrics) Steps() int64 {
	if m == nil {
		return 0
	}
	return m.stepsTotal.Load()
}

// WritePrometheus renders the registry in Prometheus text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	depth := 0
	if m.queueDepth != nil {
		depth = m.queueDepth()
	}
	m.mu.Lock()
	reasons := make([]string, 0, len(m.rejected))
	for r := range m.rejected {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	rejected := make([]string, 0, len(reasons))
	for _, r := range reasons {
		rejected = append(rejected,
			fmt.Sprintf("cdpfd_rejected_total{reason=%q} %d", r, m.rejected[r]))
	}
	lat := m.lat // Histogram is a value type: copy under the lock
	m.mu.Unlock()

	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP cdpfd_sessions_created_total Tracking sessions created.\n")
	p("# TYPE cdpfd_sessions_created_total counter\n")
	p("cdpfd_sessions_created_total %d\n", m.sessionsCreated.Load())
	p("# HELP cdpfd_sessions_completed_total Sessions that stepped every iteration.\n")
	p("# TYPE cdpfd_sessions_completed_total counter\n")
	p("cdpfd_sessions_completed_total %d\n", m.sessionsCompleted.Load())
	p("# HELP cdpfd_sessions_live Sessions currently hosted.\n")
	p("# TYPE cdpfd_sessions_live gauge\n")
	p("cdpfd_sessions_live %d\n", m.sessionsLive.Load())
	p("# HELP cdpfd_sessions_exported_total Sessions handed to another backend by live migration.\n")
	p("# TYPE cdpfd_sessions_exported_total counter\n")
	p("cdpfd_sessions_exported_total %d\n", m.sessionsExported.Load())
	p("# HELP cdpfd_sessions_imported_total Sessions received from another backend by live migration.\n")
	p("# TYPE cdpfd_sessions_imported_total counter\n")
	p("cdpfd_sessions_imported_total %d\n", m.sessionsImported.Load())
	p("# HELP cdpfd_steps_total Filter iterations stepped.\n")
	p("# TYPE cdpfd_steps_total counter\n")
	p("cdpfd_steps_total %d\n", m.stepsTotal.Load())
	p("# HELP cdpfd_queue_depth Batches admitted but not yet stepped, all shards.\n")
	p("# TYPE cdpfd_queue_depth gauge\n")
	p("cdpfd_queue_depth %d\n", depth)
	p("# HELP cdpfd_rejected_total Requests shed by admission control.\n")
	p("# TYPE cdpfd_rejected_total counter\n")
	for _, line := range rejected {
		p("%s\n", line)
	}
	p("# HELP cdpfd_step_latency_seconds Queue-to-stepped latency per filter iteration.\n")
	p("# TYPE cdpfd_step_latency_seconds histogram\n")
	if err == nil {
		err = lat.WritePrometheus(w, "cdpfd_step_latency_seconds")
	}
	if d := m.durability; d != nil {
		p("# HELP cdpfd_wal_records_total Records appended to the write-ahead log.\n")
		p("# TYPE cdpfd_wal_records_total counter\n")
		p("cdpfd_wal_records_total %d\n", d.WALRecords.Load())
		p("# HELP cdpfd_wal_bytes_total Framed bytes appended to the write-ahead log.\n")
		p("# TYPE cdpfd_wal_bytes_total counter\n")
		p("cdpfd_wal_bytes_total %d\n", d.WALBytes.Load())
		p("# HELP cdpfd_wal_fsyncs_total fsync syscalls issued on WAL segments.\n")
		p("# TYPE cdpfd_wal_fsyncs_total counter\n")
		p("cdpfd_wal_fsyncs_total %d\n", d.Fsyncs.Load())
		p("# HELP cdpfd_wal_errors_total Failed WAL writes or fsyncs.\n")
		p("# TYPE cdpfd_wal_errors_total counter\n")
		p("cdpfd_wal_errors_total %d\n", d.WALErrors.Load())
		p("# HELP cdpfd_snapshots_total Session snapshots written.\n")
		p("# TYPE cdpfd_snapshots_total counter\n")
		p("cdpfd_snapshots_total %d\n", d.Snapshots.Load())
		p("# HELP cdpfd_snapshot_errors_total Failed or unreadable session snapshots.\n")
		p("# TYPE cdpfd_snapshot_errors_total counter\n")
		p("cdpfd_snapshot_errors_total %d\n", d.SnapshotErrors.Load())
		p("# HELP cdpfd_snapshot_seconds_total Wall time spent writing snapshots.\n")
		p("# TYPE cdpfd_snapshot_seconds_total counter\n")
		p("cdpfd_snapshot_seconds_total %g\n", float64(d.SnapshotNanos.Load())/1e9)
		p("# HELP cdpfd_recovered_sessions_total Sessions rebuilt from the durability directory at startup.\n")
		p("# TYPE cdpfd_recovered_sessions_total counter\n")
		p("cdpfd_recovered_sessions_total %d\n", d.RecoveredSessions.Load())
		p("# HELP cdpfd_replayed_batches_total WAL batches re-stepped during recovery.\n")
		p("# TYPE cdpfd_replayed_batches_total counter\n")
		p("cdpfd_replayed_batches_total %d\n", d.ReplayedBatches.Load())
		p("# HELP cdpfd_wal_truncated_tails_total Torn WAL tails truncated on open.\n")
		p("# TYPE cdpfd_wal_truncated_tails_total counter\n")
		p("cdpfd_wal_truncated_tails_total %d\n", d.TruncatedTails.Load())
		p("# HELP cdpfd_wal_orphan_batches_total WAL batches with no preceding create record.\n")
		p("# TYPE cdpfd_wal_orphan_batches_total counter\n")
		p("cdpfd_wal_orphan_batches_total %d\n", d.OrphanBatches.Load())
	}
	return err
}

// latencyBuckets are the Histogram upper bounds in seconds: 100 µs to ~52 s
// in powers of two, wide enough for queueing delay under overload.
var latencyBuckets = func() []float64 {
	b := make([]float64, 20)
	ub := 100e-6
	for i := range b {
		b[i] = ub
		ub *= 2
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram with upper bounds from
// 100 µs to ~52 s in powers of two. cdpfd's step latency and cdpfgw's park
// latency both use it, so fleet dashboards can overlay the two. The zero
// value is empty; value semantics let a registry copy it out under its lock.
type Histogram struct {
	counts [21]int64 // len(latencyBuckets)+1, last bucket is +Inf
	sum    float64
}

// Observe records one latency in seconds.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	for i, ub := range latencyBuckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.counts[len(latencyBuckets)]++
}

// Quantile returns the q-quantile (0..1) estimated from the bucket counts as
// the upper bound of the bucket holding it; NaN with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	var total int64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// WritePrometheus writes h's samples for the histogram metric name in
// Prometheus text format: the cumulative _bucket lines (bounds in shortest
// float form, as Prometheus clients render them), then _sum and _count.
func (h *Histogram) WritePrometheus(w io.Writer, name string) error {
	var b strings.Builder
	var cum int64
	for i, ub := range latencyBuckets {
		cum += h.counts[i]
		fmt.Fprintf(&b, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum)
	}
	cum += h.counts[len(latencyBuckets)]
	fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", name, cum, name, h.sum, name, cum)
	_, err := io.WriteString(w, b.String())
	return err
}
