package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// httpRungs are serve-http's offered rates. Light and nominal are meant to
// be met with no growing backlog on the reference host; overload is meant
// to exceed its capacity (README.md has the calibration).
var httpRungs = []rung{{"light", 500, 0.25}, {"nominal", 1200, 0.5}, {"overload", 12000, 0.25}}

var httpSpans = spanNames{create: "http.create", request: "http.ingest", deliver: "http.sse_lag"}

// daemon is a cdpfd process the workload started.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// startDaemon launches cdpfd on an ephemeral port with a fresh data
// directory and returns once /healthz answers "ready".
func startDaemon(ctx context.Context, e *env, dir string, client *http.Client) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "cdpfd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addrFile := filepath.Join(dir, "addr")
	cmd := execCommand(ctx, e.cdpfd, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data-dir", filepath.Join(dir, "data"))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s (run through bench/run.sh, which builds it): %w", e.cdpfd, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" && healthy(client, d.base) {
			return d, nil
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("cdpfd exited during start-up: %v", err)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cdpfd not ready after 30 s")
		}
	}
}

func healthy(client *http.Client, base string) bool {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return false
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == serve.PhaseReady
}

// stop asks cdpfd to drain and exit, and kills it if it has not within 20 s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("cdpfd did not exit within 20 s of SIGTERM")
	}
}

// httpDriver feeds one cdpfd. Connection A carries creates, ingest POSTs
// and scrapes; connection B carries the live session's SSE stream.
type httpDriver struct {
	pool *cellPool
	base string
	pid  int
	a, b *http.Client

	sessions []*servedSession
	cur      *servedSession
	budget   int         // the session ingestion budget the daemon reports
	rss      *rssSampler // cdpfd's resident set, one phase per rung
	body     bytes.Buffer
	deliveries

	subReq chan *servedSession // sender → receiver: subscribe to this session next
}

// oneConn is a client that holds at most one connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func (d *httpDriver) create() (*servedSession, error) {
	n := len(d.sessions)
	s := &servedSession{idx: n, cell: n % poolSize, id: fmt.Sprintf("h-%d", n), subscribed: make(chan struct{})}
	spec := d.pool.specJSON[s.cell]
	body := append([]byte(`{"id":"`+s.id+`",`), spec[1:]...)
	s.createStart = time.Now()
	resp, err := d.a.Post(d.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", s.id, err)
	}
	var info serve.SessionInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || err != nil {
		return nil, fmt.Errorf("create %s: HTTP %d (%v)", s.id, resp.StatusCode, err)
	}
	s.createEnd = time.Now()
	d.budget = info.Queue
	d.sessions = append(d.sessions, s)
	d.subReq <- s
	select {
	case <-s.subscribed:
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("subscribe %s: no stream after %v", s.id, drainTimeout)
	}
	return s, s.err
}

// receive subscribes to each session the sender hands over, in order, and
// records every estimate's arrival until the stream's "done" event.
func (d *httpDriver) receive(ctx context.Context) {
	for s := range d.subReq {
		s.subStart = time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/sessions/"+s.id+"/estimates", nil)
		var resp *http.Response
		if err == nil {
			resp, err = d.b.Do(req)
		}
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("subscribe: HTTP %d", resp.StatusCode)
			resp.Body.Close()
		}
		s.subEnd = time.Now()
		if err != nil {
			s.err = err
			close(s.subscribed)
			continue
		}
		close(s.subscribed)
		s.err = d.readStream(s, resp.Body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func (d *httpDriver) readStream(s *servedSession, body io.Reader) error {
	r := bufio.NewReaderSize(body, 64<<10)
	event := ""
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("estimate stream: %w", err)
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")) && event == "estimate":
			s.arrive = append(s.arrive, time.Now())
			s.data = append(s.data, append([]byte(nil), line[len("data: "):]...))
			s.recv.Add(1)
			d.got(1)
		case len(line) == 0 && event == "done":
			return nil
		}
	}
}

// post sends batches [s.fed, s.fed+k) of s in one ingest request, offering
// it again after every refusal, and returns when the admitted request
// started and returned, and the number of refusals.
func (d *httpDriver) post(s *servedSession, k int) (time.Time, time.Time, int, error) {
	d.body.Reset()
	d.body.WriteString(`{"batches":[`)
	for j, f := range d.pool.frags[s.cell][s.fed : s.fed+k] {
		if j > 0 {
			d.body.WriteByte(',')
		}
		d.body.Write(f)
	}
	d.body.WriteString(`]}`)
	refused := 0
	for {
		req, err := http.NewRequest(http.MethodPost, d.base+"/v1/sessions/"+s.id+"/measurements", bytes.NewReader(d.body.Bytes()))
		if err != nil {
			return time.Time{}, time.Time{}, refused, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", fmt.Sprintf("%s/%d", s.id, s.fed))
		t0 := time.Now()
		resp, err := d.a.Do(req)
		if err != nil {
			return t0, t0, refused, fmt.Errorf("ingest %s k=%d: %w", s.id, s.fed, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		switch resp.StatusCode {
		case http.StatusAccepted:
			s.fed += k
			d.sent += int64(k)
			return t0, t1, refused, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			refused++
			d.wait(time.Millisecond)
		default:
			return t0, t1, refused, fmt.Errorf("ingest %s k=%d: HTTP %d", s.id, s.fed, resp.StatusCode)
		}
	}
}

// room is how many more batches of s the sender may have in flight. The
// daemon refuses a request that takes the session's unstepped batches past
// its budget, and it publishes a drained batch's estimates before it counts
// them as stepped, so up to as many batches as were in flight can still
// count against the budget after their estimates arrived. Keeping at most
// half the budget in flight therefore never draws a refusal.
func (d *httpDriver) room(s *servedSession) int { return d.budget/2 - (s.fed - int(s.recv.Load())) }

// runRung offers one rung's steps. One session is fed at a time; when it is
// fully fed the next is created. Steps already due when the sender gets to
// them go out together in one request, as many as the session has room for.
func (d *httpDriver) runRung(r rung, window time.Duration) (*rungResult, error) {
	n := int(r.rate * window.Seconds())
	start := time.Now()
	end := start.Add(window)
	res := &rungResult{rung: r, start: start, end: end, ops: make([]opRec, 0, n)}
	var err error
	if res.before, err = d.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid)
	if err != nil {
		return nil, err
	}
	p := newPacer(realClock{}, start, r.rate, n)
	pastEnd := false
	for p.next < p.n {
		if !pastEnd && !time.Now().Before(end) {
			pastEnd = true
			res.backlog = p.backlog(end)
			if r.name == "overload" {
				break
			}
		}
		if d.cur == nil || d.cur.fed == d.pool.iters {
			if d.cur, err = d.create(); err != nil {
				return nil, err
			}
		}
		s := d.cur
		room := d.room(s)
		if room < 1 {
			d.wait(time.Millisecond)
			continue
		}
		k := p.ready(min(room, d.pool.iters-s.fed))
		first := p.next
		kFirst := s.fed
		t0, t1, refused, err := d.post(s, k)
		if err != nil {
			return nil, err
		}
		res.refused += refused
		for j := 0; j < k; j++ {
			res.ops = append(res.ops, opRec{sess: s.idx, k: kFirst + j, due: p.due(first + j), sent: t0, ret: t1})
		}
		p.sent(k, t0)
	}
	res.lagMS = p.lagMS()
	if err := d.drain(); err != nil {
		return nil, err
	}
	cpu1, err := procCPU(d.pid)
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	if res.after, err = d.scrape(); err != nil {
		return nil, err
	}
	d.rss.mark()
	return res, nil
}

// finish feeds the current session to its end, untimed.
func (d *httpDriver) finish() error {
	for s := d.cur; s != nil && s.fed < d.pool.iters; {
		if room := d.room(s); room > 0 {
			if _, _, _, err := d.post(s, min(room, d.pool.iters-s.fed)); err != nil {
				return err
			}
			continue
		}
		d.wait(time.Millisecond)
	}
	return d.drain()
}

func (d *httpDriver) scrape() (promSample, error) {
	resp, err := d.a.Get(d.base + "/metrics")
	if err != nil {
		return promSample{}, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return promSample{}, err
	}
	return parseProm(string(text)), nil
}

func runServeHTTP(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	pool, err := loadPool(ctx, e, true)
	if err != nil {
		return nil, err
	}
	a, b := oneConn(), oneConn()
	defer a.CloseIdleConnections()
	defer b.CloseIdleConnections()

	var setups []float64
	start := func(i int) (*daemon, error) {
		t0 := time.Now()
		dmn, err := startDaemon(ctx, e, filepath.Join(e.work, fmt.Sprintf("cdpfd%d", i)), a)
		setups = append(setups, time.Since(t0).Seconds())
		return dmn, err
	}
	var dmn *daemon
	for i := 0; i < setupBefore; i++ {
		if dmn != nil {
			if err := dmn.stop(); err != nil {
				return nil, err
			}
			a.CloseIdleConnections()
		}
		if dmn, err = start(i); err != nil {
			return nil, err
		}
	}
	defer func() {
		if dmn != nil {
			dmn.stop()
		}
	}()

	d := &httpDriver{
		pool: pool, base: dmn.base, pid: dmn.cmd.Process.Pid, a: a, b: b,
		subReq: make(chan *servedSession, 1), deliveries: newDeliveries(),
		rss: startRSS(dmn.cmd.Process.Pid),
	}
	defer d.rss.close()
	rctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.receive(rctx)
	}()
	results, untracedP50, runErr := runRungs(ctx, e, httpRungs, func() []*servedSession { return d.sessions }, d.runRung)
	if runErr == nil {
		runErr = d.finish()
	}
	close(d.subReq)
	if runErr != nil {
		cancel()
	}
	wg.Wait()
	cancel()
	if runErr != nil {
		return nil, runErr
	}
	peak, err := d.rss.close()
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", peak)
	err = dmn.stop()
	dmn = nil
	if err != nil {
		return nil, fmt.Errorf("cdpfd did not drain cleanly: %w", err)
	}
	a.CloseIdleConnections()
	for i := 0; i < setupAfter; i++ {
		if dmn, err = start(setupBefore + i); err != nil {
			return nil, err
		}
		err = dmn.stop()
		dmn = nil
		if err != nil {
			return nil, err
		}
		a.CloseIdleConnections()
	}
	o.set("setup_s", median(setups))

	for _, s := range d.sessions {
		if s.err != nil {
			o.fail("session %s: %v", s.id, s.err)
		}
	}
	payloads := func(s *servedSession) ([][]byte, error) { return s.data, nil }
	records := func(s *servedSession) ([]trace.Record, error) {
		out := make([]trace.Record, len(s.data))
		for k, data := range s.data {
			if err := json.Unmarshal(data, &out[k]); err != nil {
				return nil, fmt.Errorf("session %s record %d: %w", s.id, k, err)
			}
		}
		return out, nil
	}
	if err := finishServed(ctx, e, o, pool, d.sessions, results, payloads, records); err != nil {
		return nil, err
	}
	if e.tr != nil {
		light, nominal := results[0], results[1]
		for _, r := range results {
			servedSpans(e.tr, r, d.sessions, httpSpans, r == nominal)
		}
		ix := indexSpans(e.tr.snapshot())
		o.pct("http.create_ms.p50", ix.durs(httpSpans.create, time.Millisecond), 0.5)
		o.pct("http.create_ms.p90", ix.durs(httpSpans.create, time.Millisecond), 0.9)
		o.pct("http.subscribe_ms.p50", ix.durs("http.subscribe", time.Millisecond), 0.5)
		o.pct("http.ingest_rtt_us.p50", ix.durs(httpSpans.request, time.Microsecond), 0.5)
		o.pct("http.ingest_rtt_us.p99", ix.durs(httpSpans.request, time.Microsecond), 0.99)
		o.pct("http.sse_lag_us.p50", ix.durs(httpSpans.deliver, time.Microsecond), 0.5)
		o.pct("http.sse_lag_us.p99", ix.durs(httpSpans.deliver, time.Microsecond), 0.99)
		o.set("http.refused", float64(nominal.refused))
		setDurable(o, nominal, e.workers)
		setStepLatency(o, nominal)
		o.share("process.cpu_us_per_step", float64(nominal.cpu)/float64(time.Microsecond), float64(len(nominal.ops)))
		setServedLayers(o, ix, light, nominal, untracedP50, d.sessions, httpSpans)
		o.idle("fleet.", "experiments.", "scenario.", "core.", "baseline.", "wsn.", "process.cpu_ms_per_cell",
			"serve.create", "serve.ingest", "serve.deliver", "serve.refused", "runtime.")
	}
	return o, nil
}
