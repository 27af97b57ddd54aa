package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ring"
	"repro/internal/serve"
	cellspec "repro/internal/spec"
	"repro/internal/trace"
)

// testCluster is an in-process fleet: n real serve.Servers behind httptest
// listeners, one gateway in front.
type testCluster struct {
	t     *testing.T
	gw    *Gateway
	gwSrv *httptest.Server
	mgrs  map[string]*serve.Manager
	srvs  map[string]*serve.Server
	https map[string]*httptest.Server
	names []string
}

func newTestCluster(t *testing.T, n int) *testCluster {
	return newTestClusterCfg(t, n, func(*Gateway) {})
}

// newTestClusterCfg lets a test tune the built gateway (breaker thresholds,
// park timeout, retry budget) before it starts serving.
func newTestClusterCfg(t *testing.T, n int, tune func(*Gateway)) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:     t,
		mgrs:  make(map[string]*serve.Manager),
		srvs:  make(map[string]*serve.Server),
		https: make(map[string]*httptest.Server),
	}
	var bks []ring.Backend
	for i := 0; i < n; i++ {
		met := serve.NewMetrics(nil)
		mgr := serve.NewManager(serve.ManagerConfig{
			Shards: 2, ShardQueue: 64, MaxSessions: 256, Metrics: met,
		})
		srv := serve.NewServer(mgr, met)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		t.Cleanup(mgr.Drain)
		name := fmt.Sprintf("b%d", i)
		bks = append(bks, ring.Backend{Name: name, Addr: ts.URL})
		tc.mgrs[name] = mgr
		tc.srvs[name] = srv
		tc.https[name] = ts
		tc.names = append(tc.names, name)
	}
	r, err := ring.New(bks)
	if err != nil {
		t.Fatal(err)
	}
	tc.gw = New(r)
	tune(tc.gw)
	tc.gwSrv = httptest.NewServer(tc.gw)
	t.Cleanup(tc.gwSrv.Close)
	return tc
}

func testSpec(id string, steps int, seed uint64) serve.SessionSpec {
	return serve.SessionSpec{ID: id, Cell: &cellspec.Axes{Algo: "cdpf", Density: 10, Seed: seed, Steps: steps}}
}

// create POSTs a session through the gateway and returns info + the backend
// that took it.
func (tc *testCluster) create(spec serve.SessionSpec) (serve.SessionInfo, string) {
	tc.t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(tc.gwSrv.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		data, _ := io.ReadAll(resp.Body)
		tc.t.Fatalf("create %s: HTTP %d: %s", spec.ID, resp.StatusCode, data)
	}
	var info serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		tc.t.Fatal(err)
	}
	return info, resp.Header.Get("X-Backend")
}

// feed posts one batch through the gateway; fatal on anything but 202.
func (tc *testCluster) feed(id string, b serve.Batch) {
	tc.t.Helper()
	if err := tc.tryFeed(id, b); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testCluster) tryFeed(id string, b serve.Batch) error {
	body, _ := json.Marshal(serve.IngestRequest{Batches: []serve.Batch{b}})
	resp, err := http.Post(tc.gwSrv.URL+"/v1/sessions/"+id+"/measurements",
		"application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("feed %s k=%d: HTTP %d: %s", id, b.K, resp.StatusCode, data)
	}
	return nil
}

// records reads the session's full SSE estimate stream through the gateway
// (the stream replays history, so calling after completion yields the whole
// trace).
func (tc *testCluster) records(id string) []trace.Record {
	tc.t.Helper()
	resp, err := http.Get(tc.gwSrv.URL + "/v1/sessions/" + id + "/estimates")
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		tc.t.Fatalf("estimates %s: HTTP %d: %s", id, resp.StatusCode, data)
	}
	var out []trace.Record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "estimate" {
				var rec trace.Record
				if err := json.Unmarshal([]byte(data), &rec); err != nil {
					tc.t.Fatalf("bad estimate event: %v", err)
				}
				out = append(out, rec)
			}
			if event == "done" {
				return out
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	tc.t.Fatalf("estimate stream for %s ended without done event (%d records)", id, len(out))
	return nil
}

// info GETs session info through the gateway.
func (tc *testCluster) info(id string) (serve.SessionInfo, string, int) {
	tc.t.Helper()
	resp, err := http.Get(tc.gwSrv.URL + "/v1/sessions/" + id)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	var info serve.SessionInfo
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			tc.t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return info, resp.Header.Get("X-Backend"), resp.StatusCode
}

// TestRoutesToOwner: every created session lands on the backend the ring
// names as its owner, and info requests route back to the same place.
func TestRoutesToOwner(t *testing.T) {
	tc := newTestCluster(t, 3)
	owners := make(map[string]int)
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("route-%d", i)
		_, backend := tc.create(testSpec(id, 4, uint64(i+1)))
		want, ok := tc.gw.Ring().Owner(id)
		if !ok || backend != want.Name {
			t.Fatalf("session %s created on %q, ring owner is %q", id, backend, want.Name)
		}
		_, again, status := tc.info(id)
		if status != http.StatusOK || again != backend {
			t.Fatalf("info for %s: HTTP %d via %q, created on %q", id, status, again, backend)
		}
		owners[backend]++
	}
	if len(owners) < 2 {
		t.Fatalf("12 sessions all landed on one backend: %v", owners)
	}
}

// TestAssignsSessionID: a spec without an ID gets a gateway-assigned one,
// and the session is subsequently routable by it.
func TestAssignsSessionID(t *testing.T) {
	tc := newTestCluster(t, 3)
	info, _ := tc.create(testSpec("", 4, 7))
	if info.ID == "" {
		t.Fatal("gateway returned a session with no ID")
	}
	if _, _, status := tc.info(info.ID); status != http.StatusOK {
		t.Fatalf("assigned session %s not routable: HTTP %d", info.ID, status)
	}
}

// TestRejectsCelllessSpecs: create bodies in the retired scenario/tracker
// spelling, and the empty spec, are 400 through the gateway — rejected by
// its strict decode or by the owning backend.
func TestRejectsCelllessSpecs(t *testing.T) {
	tc := newTestCluster(t, 2)
	for _, body := range []string{
		`{"scenario":{"Density":10,"Seed":1}}`,
		`{"use_ne":true}`,
		`{"tracker":{"DropFraction":0.3}}`,
		`{}`,
	} {
		resp, err := http.Post(tc.gwSrv.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestFallthroughFindsDisplacedSession: a session living on a backend that
// is NOT its ring owner (created behind the gateway's back) is still
// reachable — the 404 at the owner falls through the chain.
func TestFallthroughFindsDisplacedSession(t *testing.T) {
	tc := newTestCluster(t, 3)
	const id = "displaced-1"
	owner, _ := tc.gw.Ring().Owner(id)
	var other string
	for _, n := range tc.names {
		if n != owner.Name {
			other = n
			break
		}
	}
	if _, err := tc.mgrs[other].Create(testSpec(id, 4, 3)); err != nil {
		t.Fatal(err)
	}
	_, backend, status := tc.info(id)
	if status != http.StatusOK {
		t.Fatalf("displaced session not found: HTTP %d", status)
	}
	if backend != other {
		t.Fatalf("found on %q, lives on %q", backend, other)
	}
}

// TestMissingSessionIs404: a session that exists nowhere 404s (after the
// migration-race re-passes).
func TestMissingSessionIs404(t *testing.T) {
	tc := newTestCluster(t, 2)
	if _, _, status := tc.info("never-created"); status != http.StatusNotFound {
		t.Fatalf("missing session: HTTP %d, want 404", status)
	}
}

// TestRequestIDPropagation: a caller-supplied X-Request-Id comes back on the
// gateway response, and a gateway-minted one appears when absent — including
// inside error bodies produced by the backend.
func TestRequestIDPropagation(t *testing.T) {
	tc := newTestCluster(t, 2)
	req, _ := http.NewRequest(http.MethodGet, tc.gwSrv.URL+"/v1/sessions/nope", nil)
	req.Header.Set("X-Request-Id", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-42" {
		t.Fatalf("request id not echoed: %q", got)
	}
	var eb struct {
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.RequestID != "trace-me-42" {
		t.Fatalf("error body request_id = %q, want trace-me-42", eb.RequestID)
	}

	resp2, err := http.Get(tc.gwSrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-Id") == "" {
		t.Fatal("gateway did not mint a request id")
	}
}

// TestClusterTopology: /cluster reports every member with a session census.
func TestClusterTopology(t *testing.T) {
	tc := newTestCluster(t, 3)
	for i := 0; i < 6; i++ {
		tc.create(testSpec(fmt.Sprintf("topo-%d", i), 4, uint64(i+1)))
	}
	resp, err := http.Get(tc.gwSrv.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Eligible int `json:"eligible_backends"`
		Members  []ring.MemberInfo
		Sessions map[string]int `json:"sessions_per_backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Eligible != 3 || len(info.Members) != 3 {
		t.Fatalf("cluster reports %d eligible / %d members, want 3/3", info.Eligible, len(info.Members))
	}
	total := 0
	for _, n := range info.Sessions {
		if n < 0 {
			t.Fatalf("unreachable backend in census: %v", info.Sessions)
		}
		total += n
	}
	if total != 6 {
		t.Fatalf("census counts %d sessions, want 6 (%v)", total, info.Sessions)
	}
}

// TestAggregatedMetrics: the gateway /metrics carries its own counters plus
// backend sums.
func TestAggregatedMetrics(t *testing.T) {
	tc := newTestCluster(t, 2)
	spec := testSpec("met-1", 2, 5)
	tc.create(spec)
	batches, err := serve.Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		tc.feed(spec.ID, b)
	}
	tc.records(spec.ID) // wait for completion

	resp, err := http.Get(tc.gwSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"cdpfgw_requests_total",
		"cdpfgw_migrated_sessions_total 0",
		"cdpfgw_retry_exhausted_total",
		"cdpfgw_breaker_skips_total",
		`cdpfgw_breaker_state{backend="b0"} 0`,
		`cdpfgw_breaker_opens_total{backend="b1"} 0`,
		"cdpfgw_parked_requests_total",
		"cdpfgw_park_timeouts_total",
		// Both daemons bucket latency with serve.Histogram: pin its first
		// and last bounds as each daemon renders them.
		"cdpfgw_park_latency_seconds_bucket{le=\"0.0001\"} 0\n",
		"cdpfgw_park_latency_seconds_bucket{le=\"52.4288\"} 0\n",
		"cdpfgw_park_latency_seconds_bucket{le=\"+Inf\"} 0\n",
		"cdpfgw_park_latency_seconds_count 0\n",
		fmt.Sprintf("cdpfd_step_latency_seconds_bucket{le=\"52.4288\"} %d\n", len(batches)),
		"cdpfgw_stream_aborts_total",
		"cdpfd_sessions_created_total 1",
		fmt.Sprintf("cdpfd_steps_total %d", len(batches)),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("gateway /metrics missing %q:\n%s", want, text)
		}
	}
}
