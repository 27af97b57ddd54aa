package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/trace"
)

const (
	servedCellFile = "served-cell.json"
	// poolSize is how many distinct cells the served sessions cycle through:
	// session n runs cell n mod poolSize. Sessions therefore repeat a
	// deployment only poolSize sessions apart, far more than are ever live.
	poolSize = 256
	// latencyLimit is the p99 step latency the nominal rung should meet: 2%
	// of the cell's 1 s filter period. A miss is reported as a warning.
	latencyLimit = 20 * time.Millisecond
	// drainTimeout bounds the wait for outstanding estimates after a rung.
	drainTimeout = 30 * time.Second
	// maxBehind is how far behind its schedule the generator may end a light
	// or nominal rung before the run warns of a growing backlog.
	maxBehind = 10 * time.Millisecond
)

// cellPool is the served workloads' inputs, built before any timed window:
// per cell the session spec, every iteration's measurement batch, and for
// HTTP the encoded create body and batch bodies.
type cellPool struct {
	specs    []serve.SessionSpec
	batches  [][]serve.Batch
	specJSON [][]byte   // session spec without an ID
	frags    [][][]byte // per cell, per iteration: the JSON of one serve.Batch
	iters    int
}

func loadPool(ctx context.Context, e *env, encode bool) (*cellPool, error) {
	c, _, err := spec.LoadCell(filepath.Join(e.specs, servedCellFile))
	if err != nil {
		return nil, err
	}
	p := &cellPool{specs: make([]serve.SessionSpec, poolSize)}
	for i, seed := range fleet.Seeds(e.seed, poolSize) {
		ax := c.Axes
		ax.Seed = seed
		p.specs[i] = serve.SessionSpec{Cell: &ax}
	}
	type prepared struct {
		batches []serve.Batch
		spec    []byte
		frags   [][]byte
	}
	out, err := fleet.Map(ctx, fleet.Config{Workers: e.workers}, p.specs,
		func(_ context.Context, sp serve.SessionSpec) (prepared, error) {
			var r prepared
			var err error
			if r.batches, err = serve.Observations(sp); err != nil || !encode {
				return r, err
			}
			if r.spec, err = json.Marshal(sp); err != nil {
				return r, err
			}
			for _, b := range r.batches {
				f, err := json.Marshal(b)
				if err != nil {
					return r, err
				}
				r.frags = append(r.frags, f)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	for _, r := range out {
		p.batches = append(p.batches, r.batches)
		p.specJSON = append(p.specJSON, r.spec)
		p.frags = append(p.frags, r.frags)
	}
	p.iters = len(p.batches[0])
	return p, nil
}

// servedSession is one session a served workload created. The sender owns
// the first group of fields. After hand-off the receiver owns the rest; the
// sender reads recv atomically, and the others only once every admitted
// step's estimate has arrived.
type servedSession struct {
	idx, cell   int
	id          string
	fed         int // batches admitted
	createStart time.Time
	createEnd   time.Time

	ch         <-chan trace.Record // serve-core: the subscription
	subscribed chan struct{}       // serve-http: closed once the stream is open or failed
	recv       atomic.Int32        // estimates received, read by the sender for flow control
	subStart   time.Time
	subEnd     time.Time
	arrive     []time.Time
	recs       []trace.Record // serve-core records
	data       [][]byte       // serve-http SSE payloads
	err        error
}

// opRec is one step the generator sent: its session and iteration, when it
// was due, when the request started and when it returned.
type opRec struct {
	sess, k        int
	due, sent, ret time.Time
}

// deliveries counts admitted steps against the estimates that came back:
// the generator's flow control waits on it, and so does the drain at the end
// of each rung.
type deliveries struct {
	sent      int64 // steps admitted, sender only
	delivered atomic.Int64
	tick      chan struct{} // receiver → sender: something was delivered
}

func newDeliveries() deliveries { return deliveries{tick: make(chan struct{}, 1)} }

// got records n estimates received, waking the sender if it waits.
func (d *deliveries) got(n int64) {
	d.delivered.Add(n)
	select {
	case d.tick <- struct{}{}:
	default:
	}
}

// wait blocks until an estimate arrives or timeout passes.
func (d *deliveries) wait(timeout time.Duration) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-d.tick:
	case <-t.C:
	}
}

// drain waits until every admitted step's estimate has arrived.
func (d *deliveries) drain() error {
	deadline := time.Now().Add(drainTimeout)
	for d.delivered.Load() < d.sent {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d estimates undelivered after %v", d.sent-d.delivered.Load(), d.sent, drainTimeout)
		}
		d.wait(10 * time.Millisecond)
	}
	return nil
}

// rungResult is what one rung measured.
type rungResult struct {
	rung       rung
	start, end time.Time
	ops        []opRec
	lagMS      []float64
	backlog    int // ops due by the rung's end but not yet sent then
	refused    int
	cpu        time.Duration // CPU time of the serving process over the rung
	gc         float64       // GC share of this process's CPU over the rung
	before     promSample
	after      promSample
}

// latencies returns every op's due-to-estimate latency in milliseconds, and
// how many ops never got an estimate.
func (r *rungResult) latencies(sessions []*servedSession) ([]float64, int) {
	out := make([]float64, 0, len(r.ops))
	missing := 0
	for _, op := range r.ops {
		s := sessions[op.sess]
		if op.k >= len(s.arrive) {
			missing++
			continue
		}
		out = append(out, float64(s.arrive[op.k].Sub(op.due))/float64(time.Millisecond))
	}
	return out, missing
}

// statWindow is the slice of a rung the reported statistics are taken per:
// nominal latency percentiles and overload throughput are medians across
// the rung's one-second windows, so a disk stall that hits one second moves
// the result only if it recurs in most of them.
const statWindow = time.Second

// windows is how many whole statWindows the rung spans (at least one).
func (r *rungResult) windows() int {
	return max(1, int(r.end.Sub(r.start)/statWindow))
}

func (r *rungResult) windowOf(t time.Time) int {
	return min(r.windows()-1, int(t.Sub(r.start)/statWindow))
}

// windowedLatency is the median across windows of each window's p50, p90
// and p99 due-to-estimate latency, in milliseconds; ops fall in the window
// they were due in. ok is false when a window holds too few ops to support
// its p99.
func (r *rungResult) windowedLatency(sessions []*servedSession) (p50, p90, p99 float64, ok bool) {
	per := make([][]float64, r.windows())
	for _, op := range r.ops {
		s := sessions[op.sess]
		if op.k < len(s.arrive) {
			i := r.windowOf(op.due)
			per[i] = append(per[i], float64(s.arrive[op.k].Sub(op.due))/float64(time.Millisecond))
		}
	}
	ok = true
	var p50s, p90s, p99s []float64
	for _, lat := range per {
		a, _ := percentile(lat, 0.5)
		b, _ := percentile(lat, 0.9)
		c, sup := percentile(lat, 0.99)
		ok = ok && sup
		p50s, p90s, p99s = append(p50s, a), append(p90s, b), append(p99s, c)
	}
	return median(p50s), median(p90s), median(p99s), ok
}

// windowedRate is the median across windows of the estimates delivered per
// second.
func (r *rungResult) windowedRate(sessions []*servedSession) float64 {
	counts := make([]float64, r.windows())
	for _, s := range sessions {
		for _, t := range s.arrive {
			if !t.Before(r.start) && t.Before(r.end) {
				counts[r.windowOf(t)]++
			}
		}
	}
	width := min(statWindow, r.end.Sub(r.start)).Seconds()
	return median(counts) / width
}

// rungWindow is a rung's share of the run's measuring time.
func rungWindow(e *env, r rung) time.Duration {
	return time.Duration(e.seconds * r.share * float64(time.Second))
}

// runRungs runs light, nominal and overload in that order. A traced run
// first runs the nominal rung once more without materialising spans; its
// median latency is the baseline trace.overhead_share compares against.
func runRungs(ctx context.Context, e *env, rungs []rung, sessions func() []*servedSession, run func(rung, time.Duration) (*rungResult, error)) ([]*rungResult, float64, error) {
	untracedP50 := 0.0
	if e.tr != nil {
		r, err := run(rungs[1], rungWindow(e, rungs[1]))
		if err != nil {
			return nil, 0, err
		}
		lat, _ := r.latencies(sessions())
		untracedP50, _ = percentile(lat, 0.5)
	}
	var out []*rungResult
	for _, r := range rungs {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		res, err := run(r, rungWindow(e, r))
		if err != nil {
			return nil, 0, err
		}
		out = append(out, res)
	}
	return out, untracedP50, nil
}

// finishServed checks every session against its offline twin and sets the
// end-to-end metrics the served workloads share: overload throughput,
// nominal latency, and accuracy. Refusals count as failed operations only at
// the light and nominal rungs, where the offered rate should be met.
func finishServed(ctx context.Context, e *env, o *outcome, pool *cellPool, sessions []*servedSession, rs []*rungResult,
	payloads func(*servedSession) ([][]byte, error), records func(*servedSession) ([]trace.Record, error)) error {
	want, err := twins(ctx, e, pool, len(sessions))
	if err != nil {
		return err
	}
	o.attempted += len(sessions)
	for _, s := range sessions {
		o.attempted += s.fed
	}
	o.failed += verifySessions(o, sessions, want, payloads)
	light, nominal, overload := rs[0], rs[1], rs[2]
	o.failed += light.refused + nominal.refused
	for _, r := range rs {
		if _, missing := r.latencies(sessions); missing > 0 {
			o.failed += missing
			o.fail("%s rung: %d steps never got an estimate", r.rung.name, missing)
		}
		if behind := time.Duration(float64(r.backlog) / r.rung.rate * float64(time.Second)); r != overload && behind > maxBehind {
			o.warnings = append(o.warnings, fmt.Sprintf("%s rung ended %v behind its schedule (%d steps)", r.rung.name, behind, r.backlog))
		}
	}
	o.set("steps_per_s", overload.windowedRate(sessions))
	p50, p90, p99, ok := nominal.windowedLatency(sessions)
	o.set("gen.nominal_p50_ms", p50)
	o.set("latency_p90_ms", p90)
	o.set("gen.nominal_p99_ms", p99)
	if !ok {
		o.warnings = append(o.warnings, fmt.Sprintf("nominal rung windows hold fewer than %d ops each: p99 unsupported", 100*minBeyond))
	}
	if p99 > float64(latencyLimit)/float64(time.Millisecond) {
		o.warnings = append(o.warnings, fmt.Sprintf("nominal rung p99 %.2f ms exceeds the %v limit", p99, latencyLimit))
	}
	return setServedAccuracy(o, sessions, records)
}

// twins runs the offline twin of every pool cell the sessions used and
// returns each record's JSON encoding, the bytes a served record must equal.
func twins(ctx context.Context, e *env, pool *cellPool, sessions int) ([][][]byte, error) {
	cells := make([]int, min(sessions, poolSize))
	for i := range cells {
		cells[i] = i
	}
	return fleet.Map(ctx, fleet.Config{Workers: e.workers}, cells, func(_ context.Context, c int) ([][]byte, error) {
		rec, err := serve.OfflineTrace(pool.specs[c])
		if err != nil {
			return nil, err
		}
		out := make([][]byte, len(rec.Records))
		for k, r := range rec.Records {
			if out[k], err = json.Marshal(r); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

// verifySessions checks every session's records against its offline twin,
// byte for byte, and returns how many sessions differ.
func verifySessions(o *outcome, sessions []*servedSession, want [][][]byte, payloads func(*servedSession) ([][]byte, error)) int {
	bad := 0
	for _, s := range sessions {
		got, err := payloads(s)
		if err == nil {
			err = diffPayloads(got, want[s.cell])
		}
		if err != nil {
			o.fail("session %s: %v", s.id, err)
			bad++
		}
	}
	return bad
}

func diffPayloads(got, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records served, offline twin has %d", len(got), len(want))
	}
	for k := range want {
		if !bytes.Equal(got[k], want[k]) {
			return fmt.Errorf("record %d differs from the offline twin", k)
		}
	}
	return nil
}

// setServedAccuracy sets rmse_m and comm_bytes over the first poolSize
// sessions, one per pool cell: the served cell is one scenario group, so
// rmse_m is its median session RMSE, as for the offline sweeps.
func setServedAccuracy(o *outcome, sessions []*servedSession, records func(*servedSession) ([]trace.Record, error)) error {
	if len(sessions) < poolSize {
		o.warnings = append(o.warnings, fmt.Sprintf("only %d sessions served; rmse_m and comm_bytes cover them", len(sessions)))
	}
	var rmse, bytes []float64
	for _, s := range sessions[:min(len(sessions), poolSize)] {
		recs, err := records(s)
		if err != nil {
			return err
		}
		r := trace.Recorder{Records: recs}
		rmse = append(rmse, r.RMSE())
		bytes = append(bytes, float64(r.TotalBytes()))
	}
	o.set("rmse_m", groupRMSE(o, rmse))
	o.set("comm_bytes", mean(bytes))
	return nil
}

// promSample is one scrape of the daemon's /metrics text: plain samples by
// name (labels included), and the cumulative step-latency histogram.
type promSample struct {
	vals    map[string]float64
	buckets []bucket // sorted by upper bound; the last is +Inf
}

type bucket struct {
	le  float64
	cum float64
}

const latencyHistogram = "cdpfd_step_latency_seconds_bucket"

func parseProm(text string) promSample {
	p := promSample{vals: make(map[string]float64)}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if rest, ok := strings.CutPrefix(name, latencyHistogram+`{le="`); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err == nil {
				p.buckets = append(p.buckets, bucket{le, v})
			}
			continue
		}
		p.vals[name] = v
	}
	sort.Slice(p.buckets, func(a, b int) bool { return p.buckets[a].le < p.buckets[b].le })
	return p
}

// delta is a sample's increase between two scrapes; labelled samples of one
// name are summed.
func (p promSample) delta(prev promSample, name string) float64 {
	total := 0.0
	for k, v := range p.vals {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v - prev.vals[k]
		}
	}
	return total
}

// histQuantile estimates the q-quantile of the observations made between
// two scrapes, interpolating linearly inside the bucket that holds it.
func (p promSample) histQuantile(prev promSample, q float64) float64 {
	if len(p.buckets) == 0 || len(p.buckets) != len(prev.buckets) {
		return 0
	}
	d := make([]float64, len(p.buckets))
	for i := range p.buckets {
		d[i] = p.buckets[i].cum - prev.buckets[i].cum
	}
	total := d[len(d)-1]
	if total <= 0 {
		return 0
	}
	target := math.Ceil(q * total)
	lo, prevCum := 0.0, 0.0
	for i, b := range p.buckets {
		if d[i] >= target {
			if math.IsInf(b.le, 1) || d[i] == prevCum {
				return lo
			}
			return lo + (b.le-lo)*(target-prevCum)/(d[i]-prevCum)
		}
		lo, prevCum = b.le, d[i]
	}
	return lo
}

// setDurable sets the durable.* metrics from two scrapes around the
// nominal rung.
func setDurable(o *outcome, r *rungResult, shards int) {
	steps := r.after.delta(r.before, "cdpfd_steps_total")
	o.set("durable.wal_records", r.after.delta(r.before, "cdpfd_wal_records_total"))
	o.share("durable.wal_bytes_per_step", r.after.delta(r.before, "cdpfd_wal_bytes_total"), steps)
	o.set("durable.fsyncs", r.after.delta(r.before, "cdpfd_wal_fsyncs_total"))
	o.set("durable.snapshots", r.after.delta(r.before, "cdpfd_snapshots_total"))
	o.share("durable.snapshot_s.share", r.after.delta(r.before, "cdpfd_snapshot_seconds_total"),
		float64(shards)*r.end.Sub(r.start).Seconds())
}

// setStepLatency sets serve.step_latency_ms.* from the serving layer's own
// queue-to-stepped histogram, over the nominal rung.
func setStepLatency(o *outcome, r *rungResult) {
	o.set("serve.step_latency_ms.p50", 1e3*r.after.histQuantile(r.before, 0.5))
	o.set("serve.step_latency_ms.p99", 1e3*r.after.histQuantile(r.before, 0.99))
}

// spanNames names a served workload's spans: the session create, the
// request that admits a step, and the step's delivery back to the client.
type spanNames struct{ create, request, deliver string }

// servedSpans materialises a traced rung's spans from the timestamps the
// generator and receiver took: a root per rung and the creates (and, over
// HTTP, subscribes) that happened in it. With ops, each op adds a step span
// from due time to estimate holding the generator's lag, the request and the
// delivery; only the nominal rung records them, which keeps the span file to
// tens of megabytes.
func servedSpans(t *tracer, r *rungResult, sessions []*servedSession, names spanNames, ops bool) {
	rootID := t.newID()
	ss := []span{t.mk(rootID, "rung."+r.rung.name, 0, r.start, r.end, "")}
	for _, s := range sessions {
		if !s.createStart.Before(r.start) && s.createStart.Before(r.end) {
			ss = append(ss, t.mk(t.newID(), names.create, rootID, s.createStart, s.createEnd, s.id))
			if !s.subStart.IsZero() {
				ss = append(ss, t.mk(t.newID(), "http.subscribe", rootID, s.subStart, s.subEnd, s.id))
			}
		}
	}
	if ops {
		for _, op := range r.ops {
			s := sessions[op.sess]
			if op.k >= len(s.arrive) {
				continue
			}
			arrive := s.arrive[op.k]
			id := t.newID()
			ss = append(ss,
				t.mk(id, "step", rootID, op.due, arrive, fmt.Sprintf("%s/%d", s.id, op.k)),
				t.mk(t.newID(), "gen.lag", id, op.due, op.sent, ""),
				t.mk(t.newID(), names.request, id, op.sent, op.ret, ""),
				t.mk(t.newID(), names.deliver, id, op.ret, maxTime(op.ret, arrive), ""))
		}
	}
	t.addAll(ss)
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// setServedLayers sets the metrics every served workload derives the same
// way from its rungs: generator lag and backlog, the light rung's tail, the
// traced nominal rung's step reconstruction, and the tracing overhead.
func setServedLayers(o *outcome, ix spanIndex, light, nominal *rungResult, untracedP50 float64, sessions []*servedSession, names spanNames) {
	o.pct("gen.send_lag_ms.p99", nominal.lagMS, 0.99)
	lightLat, _ := light.latencies(sessions)
	o.pct("gen.light_p99_ms", lightLat, 0.99)
	o.set("gen.nominal_backlog", float64(nominal.backlog))
	steps := ix.durs("step", time.Millisecond)
	stepP50, _ := percentile(steps, 0.5)
	lag, _ := percentile(ix.durs("gen.lag", time.Millisecond), 0.5)
	req, _ := percentile(ix.durs(names.request, time.Millisecond), 0.5)
	del, _ := percentile(ix.durs(names.deliver, time.Millisecond), 0.5)
	o.share("trace.reconstruct_share", lag+req+del, stepP50)
	o.share("trace.overhead_share", stepP50-untracedP50, untracedP50)
}
