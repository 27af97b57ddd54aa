package chaos

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"
)

// Fault is one injected fault, recorded in accept order. The log is
// deterministic: the same seed + schedule over the same number of accepted
// connections yields the same sequence.
type Fault struct {
	Conn uint64 `json:"conn"` // 0-based accept ordinal
	Rule int    `json:"rule"` // index into the schedule
	Kind Kind   `json:"kind"`
}

// Config configures a Proxy.
type Config struct {
	// Target is the backend host:port the proxy forwards to.
	Target string
	// Seed drives Prob-rule decisions. Two proxies with the same seed,
	// schedule, and accept sequence inject identical faults.
	Seed uint64
	// Schedule is the fault script; an empty schedule forwards everything.
	Schedule Schedule
	// Listen is the address to bind ("127.0.0.1:0" when empty).
	Listen string
}

// dialTimeout bounds the upstream dial.
const dialTimeout = 5 * time.Second

// Proxy is a single-backend fault-injecting TCP proxy. Fault decisions are
// made sequentially in the accept loop — before the handler goroutine spawns
// — so the fault log depends only on (seed, schedule, accept order).
type Proxy struct {
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	next   uint64 // next accept ordinal
	faults []Fault
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// Start binds the listener and begins proxying.
func Start(cfg Config) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("chaos: no target")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{cfg: cfg, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Faults returns a copy of the injected-fault log in accept order.
func (p *Proxy) Faults() []Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Fault, len(p.faults))
	copy(out, p.faults)
	return out
}

// Conns returns the number of connections accepted so far.
func (p *Proxy) Conns() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next
}

// FaultCounts returns injected-fault totals by kind.
func (p *Proxy) FaultCounts() map[Kind]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Kind]uint64)
	for _, f := range p.faults {
		out[f.Kind]++
	}
	return out
}

// WritePrometheus emits the proxy's counters in Prometheus text format.
func (p *Proxy) WritePrometheus(w io.Writer) {
	conns := p.Conns()
	counts := p.FaultCounts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "cdpfchaos_conns_total %d\n", conns)
	for _, k := range kinds {
		fmt.Fprintf(w, "cdpfchaos_faults_injected_total{kind=%q} %d\n", k, counts[Kind(k)])
	}
}

// Close stops accepting, severs all live connections, and waits for the
// handlers to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Decide the fault here, sequentially, so the log order is the
		// accept order regardless of handler scheduling.
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		ordinal := p.next
		p.next++
		rule := p.cfg.Schedule.decide(p.cfg.Seed, ordinal)
		if rule >= 0 {
			p.faults = append(p.faults, Fault{
				Conn: ordinal, Rule: rule, Kind: p.cfg.Schedule.Rules[rule].Kind,
			})
		}
		p.track(conn)
		p.mu.Unlock()

		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.untrack(conn)
			if rule < 0 {
				p.splice(conn, -1, 0)
				return
			}
			p.inject(conn, p.cfg.Schedule.Rules[rule])
		}()
	}
}

// track/untrack assume/take p.mu as noted: track is called under the lock.
func (p *Proxy) track(c net.Conn) { p.conns[c] = struct{}{} }
func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

// abort closes the client connection with an RST rather than a FIN so the
// peer sees "connection reset", never a clean EOF.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (p *Proxy) inject(client net.Conn, r Rule) {
	switch r.Kind {
	case KindReset:
		abort(client)
	case KindBlackhole:
		// Accept, forward nothing, stall, then reset. A plain sleep (not a
		// read loop): the client's bytes pile up in kernel buffers exactly
		// as they would against a hung host.
		time.Sleep(r.Hold)
		abort(client)
	case KindLatency:
		time.Sleep(r.Delay)
		p.splice(client, -1, 0)
	case KindSlow:
		p.splice(client, -1, r.Rate)
	case KindTruncate:
		p.splice(client, r.Bytes, 0)
	default:
		p.splice(client, -1, 0)
	}
}

// splice connects to the target and shuttles bytes both ways. truncAfter ≥ 0
// caps the backend→client byte count and then resets the client connection
// (truncAfter == -1 disables truncation; 0 means "cut before the first
// response byte"); rate > 0 throttles the backend→client direction to that
// many bytes/sec.
func (p *Proxy) splice(client net.Conn, truncAfter, rate int64) {
	upstream, err := net.DialTimeout("tcp", p.cfg.Target, dialTimeout)
	if err != nil {
		abort(client)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		upstream.Close()
		abort(client)
		return
	}
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()
	defer p.untrack(upstream)

	done := make(chan struct{}, 2)
	// client → backend: always unmodified.
	go func() {
		io.Copy(upstream, client)
		if tc, ok := upstream.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// backend → client: optionally truncated and/or throttled.
	go func() {
		var w io.Writer = client
		var tw *truncWriter
		if truncAfter >= 0 {
			tw = &truncWriter{w: w, remaining: truncAfter}
			w = tw
		}
		if rate > 0 {
			w = &throttleWriter{w: w, rate: rate, start: time.Now()}
		}
		_, err := io.Copy(w, upstream)
		if tw != nil && (tw.truncated || err == errTruncated) {
			// The cut must be client-visible: reset, never a clean FIN.
			abort(client)
		} else if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}

// errTruncated marks the truncation cap being hit mid-stream.
var errTruncated = fmt.Errorf("chaos: response truncated")

// truncWriter forwards at most `remaining` bytes, then reports errTruncated
// on every write that would exceed the cap. The written prefix is exactly
// the first bytes of the stream — never reordered or corrupted — and the
// overflow is never silently dropped: the caller sees the error.
type truncWriter struct {
	w         io.Writer
	remaining int64
	truncated bool
}

func (t *truncWriter) Write(b []byte) (int, error) {
	if t.remaining <= 0 {
		t.truncated = true
		return 0, errTruncated
	}
	n := len(b)
	if int64(n) > t.remaining {
		n = int(t.remaining)
	}
	wrote, err := t.w.Write(b[:n])
	t.remaining -= int64(wrote)
	if err != nil {
		return wrote, err
	}
	if wrote < len(b) {
		t.truncated = true
		return wrote, errTruncated
	}
	return wrote, nil
}

// throttleWriter paces writes to `rate` bytes/sec, measured from start.
type throttleWriter struct {
	w       io.Writer
	rate    int64
	start   time.Time
	written int64
}

func (t *throttleWriter) Write(b []byte) (int, error) {
	const chunk = 1024
	total := 0
	for len(b) > 0 {
		n := len(b)
		if n > chunk {
			n = chunk
		}
		wrote, err := t.w.Write(b[:n])
		total += wrote
		t.written += int64(wrote)
		if err != nil {
			return total, err
		}
		b = b[n:]
		// Sleep until the pace catches up with what we've sent.
		due := time.Duration(float64(t.written) / float64(t.rate) * float64(time.Second))
		if ahead := due - time.Since(t.start); ahead > 0 {
			time.Sleep(ahead)
		}
	}
	return total, nil
}
