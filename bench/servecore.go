package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// coreRungs are serve-core's offered rates. Light and nominal are meant to
// be met with no growing backlog on the reference host; overload is meant
// to exceed its capacity (README.md has the calibration).
var coreRungs = []rung{{"light", 1000, 0.25}, {"nominal", 3000, 0.5}, {"overload", 40000, 0.25}}

var coreSpans = spanNames{create: "serve.create", request: "serve.ingest", deliver: "serve.deliver"}

// coreSlots is how many sessions serve-core keeps live; a finished session
// is replaced by a new one on the slot's next step.
const coreSlots = 32

// coreDriver feeds an in-process serve.Manager. One goroutine sends and one
// receives; the receiver fans the sessions' subscriptions in with
// reflect.Select.
type coreDriver struct {
	pool *cellPool
	met  *serve.Metrics
	mgr  *serve.Manager

	sessions []*servedSession
	slots    []*servedSession // the live sessions the steps rotate over
	rss      *rssSampler      // this process's resident set, one phase per rung
	deliveries

	// ctrl hands new subscriptions to the receiver. It holds a whole set-up's
	// worth, because set-up creates one session per slot before the receiver
	// starts.
	ctrl chan *servedSession
	stop chan struct{}
}

// openCore starts a manager and creates the first slots sessions:
// serve-core's set-up.
func openCore(pool *cellPool, slots int) (*coreDriver, error) {
	met := serve.NewMetrics(nil)
	mgr := serve.NewManager(serve.ManagerConfig{Shards: runtime.GOMAXPROCS(0), Metrics: met})
	met.SetQueueDepthFunc(mgr.QueueDepth)
	d := &coreDriver{
		pool: pool, met: met, mgr: mgr,
		slots: make([]*servedSession, slots), deliveries: newDeliveries(),
		ctrl: make(chan *servedSession, slots), stop: make(chan struct{}),
	}
	for i := range d.slots {
		var err error
		if d.slots[i], err = d.create(); err != nil {
			d.mgr.Drain()
			return nil, err
		}
	}
	return d, nil
}

func (d *coreDriver) create() (*servedSession, error) {
	n := len(d.sessions)
	s := &servedSession{idx: n, cell: n % poolSize, id: fmt.Sprintf("c-%d", n), createStart: time.Now()}
	sp := d.pool.specs[s.cell]
	sp.ID = s.id
	if _, err := d.mgr.Create(sp); err != nil {
		return nil, fmt.Errorf("create %s: %w", s.id, err)
	}
	_, ch, err := d.mgr.Subscribe(s.id)
	if err != nil {
		return nil, fmt.Errorf("subscribe %s: %w", s.id, err)
	}
	s.ch = ch
	s.createEnd = time.Now()
	d.sessions = append(d.sessions, s)
	d.ctrl <- s
	return s, nil
}

// receive records every estimate's arrival until stop is closed.
func (d *coreDriver) receive() {
	cases := []reflect.SelectCase{
		{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(d.ctrl)},
		{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(d.stop)},
	}
	subs := []*servedSession{nil, nil}
	remove := func(i int) {
		last := len(cases) - 1
		cases[i], subs[i] = cases[last], subs[last]
		cases, subs = cases[:last], subs[:last]
	}
	record := func(s *servedSession, r trace.Record) {
		s.arrive = append(s.arrive, time.Now())
		s.recs = append(s.recs, r)
		s.recv.Add(1)
	}
	for {
		i, v, ok := reflect.Select(cases)
		switch {
		case i == 0:
			s := v.Interface().(*servedSession)
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.ch)})
			subs = append(subs, s)
			continue
		case i == 1:
			return
		case !ok:
			remove(i)
			continue
		}
		s := subs[i]
		record(s, v.Interface().(trace.Record))
		n := int64(1)
		// Take whatever else this session already has without another select.
	more:
		for {
			select {
			case r, ok := <-s.ch:
				if !ok {
					remove(i)
					break more
				}
				record(s, r)
				n++
			default:
				break more
			}
		}
		d.got(n)
	}
}

// room is how many more batches of s the sender may have in flight; see
// httpDriver.room for why it is half the session's budget.
func (d *coreDriver) room(s *servedSession) int {
	return serve.DefaultSessionQueue/2 - (s.fed - int(s.recv.Load()))
}

// ingest admits the next batch of s once the session has room for it. It
// returns when the admitted request started and returned, and the number of
// refusals, which the room rule should keep at zero.
func (d *coreDriver) ingest(s *servedSession) (time.Time, time.Time, int, error) {
	refused := 0
	b := d.pool.batches[s.cell][s.fed : s.fed+1]
	for {
		for d.room(s) < 1 {
			d.wait(time.Millisecond)
		}
		t0 := time.Now()
		_, err := d.mgr.Ingest(s.id, serve.IngestRequest{Batches: b})
		t1 := time.Now()
		if err == nil {
			s.fed++
			d.sent++
			return t0, t1, refused, nil
		}
		var ae *serve.AdmitError
		if !errors.As(err, &ae) || (ae.Status != 429 && ae.Status != 503) {
			return t0, t1, refused, fmt.Errorf("ingest %s k=%d: %w", s.id, s.fed, err)
		}
		refused++
		d.wait(time.Millisecond)
	}
}

// runRung offers one rung's steps round-robin over the slots, replacing
// finished sessions as it goes, then waits for the estimates.
func (d *coreDriver) runRung(r rung, window time.Duration) (*rungResult, error) {
	n := int(r.rate * window.Seconds())
	start := time.Now()
	end := start.Add(window)
	res := &rungResult{rung: r, start: start, end: end, before: d.scrape(), ops: make([]opRec, 0, n)}
	cpu0, gc0 := selfCPU(), readGC()
	p := newPacer(realClock{}, start, r.rate, n)
	pastEnd := false
	for {
		if !pastEnd && !time.Now().Before(end) {
			pastEnd = true
			res.backlog = p.backlog(end)
			if r.name == "overload" {
				break
			}
		}
		if p.ready(1) == 0 {
			break
		}
		slot := p.next % len(d.slots)
		s := d.slots[slot]
		if s.fed == d.pool.iters {
			var err error
			if s, err = d.create(); err != nil {
				return nil, err
			}
			d.slots[slot] = s
		}
		k := s.fed
		t0, t1, refused, err := d.ingest(s)
		if err != nil {
			return nil, err
		}
		res.refused += refused
		res.ops = append(res.ops, opRec{sess: s.idx, k: k, due: p.due(p.next), sent: t0, ret: t1})
		p.sent(1, t0)
	}
	res.lagMS = p.lagMS()
	if err := d.drain(); err != nil {
		return nil, err
	}
	res.cpu, res.gc = selfCPU()-cpu0, gcShare(gc0, readGC())
	res.after = d.scrape()
	d.rss.mark()
	return res, nil
}

// finish feeds every live session to its end, untimed, so every session
// can be checked whole against its offline twin.
func (d *coreDriver) finish() error {
	for _, s := range d.slots {
		for s.fed < d.pool.iters {
			if _, _, _, err := d.ingest(s); err != nil {
				return err
			}
		}
	}
	return d.drain()
}

func (d *coreDriver) scrape() promSample {
	var b bytes.Buffer
	_ = d.met.WritePrometheus(&b)
	return parseProm(b.String())
}

// corePayloads encodes a session's records the way the daemon's SSE stream
// does, for the byte comparison with the offline twin.
func corePayloads(s *servedSession) ([][]byte, error) {
	out := make([][]byte, len(s.recs))
	for k, r := range s.recs {
		var err error
		if out[k], err = json.Marshal(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runServeCore(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	pool, err := loadPool(ctx, e, false)
	if err != nil {
		return nil, err
	}
	var setups []float64
	open := func() (*coreDriver, error) {
		start := time.Now()
		d, err := openCore(pool, coreSlots)
		setups = append(setups, time.Since(start).Seconds())
		return d, err
	}
	var d *coreDriver
	for i := 0; i < setupBefore; i++ {
		if d != nil {
			d.mgr.Drain()
		}
		if d, err = open(); err != nil {
			return nil, err
		}
	}

	d.rss = startRSS(os.Getpid())
	defer d.rss.close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.receive()
	}()
	results, untracedP50, runErr := runRungs(ctx, e, coreRungs, func() []*servedSession { return d.sessions }, d.runRung)
	if runErr == nil {
		runErr = d.finish()
	}
	close(d.stop)
	wg.Wait()
	d.mgr.Drain()
	if runErr != nil {
		return nil, runErr
	}
	peak, err := d.rss.close()
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", peak)
	for i := 0; i < setupAfter; i++ {
		extra, err := open()
		if err != nil {
			return nil, err
		}
		extra.mgr.Drain()
	}
	o.set("setup_s", median(setups))

	records := func(s *servedSession) ([]trace.Record, error) { return s.recs, nil }
	if err := finishServed(ctx, e, o, pool, d.sessions, results, corePayloads, records); err != nil {
		return nil, err
	}
	if e.tr != nil {
		light, nominal := results[0], results[1]
		for _, r := range results {
			servedSpans(e.tr, r, d.sessions, coreSpans, r == nominal)
		}
		ix := indexSpans(e.tr.snapshot())
		o.pct("serve.create_ms.p50", ix.durs(coreSpans.create, time.Millisecond), 0.5)
		o.pct("serve.create_ms.p99", ix.durs(coreSpans.create, time.Millisecond), 0.99)
		o.pct("serve.ingest_us.p50", ix.durs(coreSpans.request, time.Microsecond), 0.5)
		o.pct("serve.ingest_us.p99", ix.durs(coreSpans.request, time.Microsecond), 0.99)
		o.pct("serve.deliver_us.p50", ix.durs(coreSpans.deliver, time.Microsecond), 0.5)
		o.pct("serve.deliver_us.p99", ix.durs(coreSpans.deliver, time.Microsecond), 0.99)
		o.set("serve.refused", float64(nominal.refused))
		setStepLatency(o, nominal)
		o.share("process.cpu_us_per_step", float64(nominal.cpu)/float64(time.Microsecond), float64(len(nominal.ops)))
		o.set("runtime.gc_cpu_share", nominal.gc)
		setServedLayers(o, ix, light, nominal, untracedP50, d.sessions, coreSpans)
		o.idle("fleet.", "experiments.", "scenario.", "core.", "baseline.", "wsn.", "process.cpu_ms_per_cell", "http.", "durable.")
	}
	return o, nil
}
