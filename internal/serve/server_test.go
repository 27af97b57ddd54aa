package serve

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

	"repro/internal/trace"
)

// legacySpecBodies are create bodies in the retired scenario/tracker
// spelling, plus the empty spec: every one lacks a cell.
var legacySpecBodies = []string{
	`{"scenario":{"Density":10,"Seed":1}}`,
	`{"use_ne":true}`,
	`{"tracker":{"DropFraction":0.3}}`,
	`{}`,
}

// newTestServer boots a full HTTP stack on a test listener.
func newTestServer(t *testing.T, cfg ManagerConfig) (*httptest.Server, *Manager) {
	t.Helper()
	met := NewMetrics(nil)
	cfg.Metrics = met
	mgr := NewManager(cfg)
	ts := httptest.NewServer(NewServer(mgr, met))
	t.Cleanup(func() {
		mgr.Drain()
		ts.Close()
	})
	return ts, mgr
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// readSSE collects "estimate" events until the "done" event or EOF.
func readSSE(t *testing.T, body io.Reader) []trace.Record {
	t.Helper()
	var recs []trace.Record
	event := ""
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "estimate" {
				var rec trace.Record
				if err := json.Unmarshal([]byte(data), &rec); err != nil {
					t.Fatalf("bad estimate payload %q: %v", data, err)
				}
				recs = append(recs, rec)
			} else if event == "done" {
				return recs
			}
		}
	}
	return recs
}

// TestHTTPServedMatchesOffline is the transport-level equivalence test: the
// whole HTTP hop (JSON spec, JSON measurement batches, SSE estimates) must
// leave the trace byte-identical to the offline run.
func TestHTTPServedMatchesOffline(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{Shards: 3})
	spec := testSpec("http-twin", 31)

	offline, err := OfflineTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/sessions", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var info SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Iterations != offline.Len() {
		t.Fatalf("created with %d iterations, offline has %d", info.Iterations, offline.Len())
	}

	// Subscribe before feeding so the stream carries the entire run.
	stream, err := http.Get(ts.URL + "/v1/sessions/http-twin/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}

	for _, b := range batches {
		for {
			resp, body := postJSON(t, ts.URL+"/v1/sessions/http-twin/measurements",
				IngestRequest{Batches: []Batch{b}})
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("ingest k=%d: %d %s", b.K, resp.StatusCode, body)
			}
		}
	}

	got := readSSE(t, stream.Body)
	served := &trace.Recorder{Algo: offline.Algo, Density: offline.Density, Seed: offline.Seed, Records: got}
	var off, srv strings.Builder
	if err := offline.WriteCSV(&off); err != nil {
		t.Fatal(err)
	}
	if err := served.WriteCSV(&srv); err != nil {
		t.Fatal(err)
	}
	if off.String() != srv.String() {
		t.Fatalf("HTTP-served trace differs from offline:\noffline:\n%s\nserved:\n%s",
			off.String(), srv.String())
	}

	// Status of the finished run.
	resp2, err := http.Get(ts.URL + "/v1/sessions/http-twin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var fin SessionInfo
	if err := json.NewDecoder(resp2.Body).Decode(&fin); err != nil {
		t.Fatal(err)
	}
	if !fin.Done || fin.Stepped != offline.Len() {
		t.Fatalf("finished info = %+v", fin)
	}
}

func TestHTTPErrorsAndStatusCodes(t *testing.T) {
	ts, mgr := newTestServer(t, ManagerConfig{Shards: 1})

	// Unknown session: 404 on status, ingest, and stream.
	for _, url := range []string{
		ts.URL + "/v1/sessions/ghost",
		ts.URL + "/v1/sessions/ghost/estimates",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", url, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/sessions/ghost/measurements",
		IngestRequest{Batches: []Batch{{K: 0}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest to ghost = %d, want 404", resp.StatusCode)
	}

	// Malformed and unknown-field session specs: 400.
	resp2, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":{"Density":`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated spec = %d, want 400", resp2.StatusCode)
	}
	resp3, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field spec = %d, want 400", resp3.StatusCode)
	}

	// Invalid cell parameters: validated via the cell.
	bad := testSpec("bad", 1)
	bad.Cell.Density = -4
	resp4, body := postJSON(t, ts.URL+"/v1/sessions", bad)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid cell = %d %s, want 400", resp4.StatusCode, body)
	}

	// Legacy scenario/tracker bodies and cell-less specs: 400.
	for _, legacy := range legacySpecBodies {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(legacy))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s = %d, want 400", legacy, resp.StatusCode)
		}
	}

	// A batch naming a node outside the network: 400, nothing admitted, and
	// the session (and its shard) keep stepping valid batches.
	spec := testSpec("nodes", 2)
	resp5, body := postJSON(t, ts.URL+"/v1/sessions", spec)
	if resp5.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp5.StatusCode, body)
	}
	var info SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{-1, info.Nodes} {
		resp, body := postJSON(t, ts.URL+"/v1/sessions/nodes/measurements",
			IngestRequest{Batches: []Batch{{K: 0, Obs: []Measurement{{Node: node, Bearing: 0.5}}}}})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "outside") {
			t.Fatalf("node %d of %d = %d %s, want 400 naming the range", node, info.Nodes, resp.StatusCode, body)
		}
	}
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/sessions/nodes/measurements",
		IngestRequest{Batches: batches[:1]}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid k=0 after rejected batches = %d %s", resp.StatusCode, body)
	}
	waitStepped(t, mgr, "nodes", 1)
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	ts, mgr := newTestServer(t, ManagerConfig{Shards: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	spec := testSpec("metrics", 13)
	if resp, body := postJSON(t, ts.URL+"/v1/sessions", spec); resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/sessions/metrics/measurements",
		IngestRequest{Batches: batches[:2]}); resp.StatusCode != 202 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	waitFor(t, func() bool {
		info, ok := mgr.Info("metrics")
		return ok && info.Stepped == 2
	})

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	data, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"cdpfd_sessions_created_total 1",
		"cdpfd_sessions_live 1",
		"cdpfd_steps_total 2",
		"cdpfd_step_latency_seconds_count 2",
		`cdpfd_step_latency_seconds_bucket{le="+Inf"} 2`,
		"cdpfd_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	// Draining flips healthz to 503.
	mgr.Drain()
	resp5, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp5.StatusCode)
	}
}

// TestDrainTerminatesLiveStream: a client mid-stream sees its SSE connection
// end promptly when the server drains, after receiving every record that was
// admitted.
func TestDrainTerminatesLiveStream(t *testing.T) {
	ts, mgr := newTestServer(t, ManagerConfig{Shards: 1})
	spec := testSpec("drain-stream", 17)
	if resp, body := postJSON(t, ts.URL+"/v1/sessions", spec); resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	stream, err := http.Get(ts.URL + "/v1/sessions/drain-stream/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/sessions/drain-stream/measurements",
		IngestRequest{Batches: batches[:5]}); resp.StatusCode != 202 {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	waitFor(t, func() bool {
		info, ok := mgr.Info("drain-stream")
		return ok && info.Stepped == 5
	})

	done := make(chan []trace.Record, 1)
	go func() { done <- readSSE(t, stream.Body) }()
	mgr.Drain()
	recs := <-done
	if len(recs) != 5 {
		t.Fatalf("stream delivered %d records through drain, want 5", len(recs))
	}
}

func TestSSEEventFraming(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{Shards: 1})
	spec := testSpec("framing", 23)
	if resp, body := postJSON(t, ts.URL+"/v1/sessions", spec); resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	batches, err := Observations(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if resp, body := postJSON(t, fmt.Sprintf("%s/v1/sessions/framing/measurements", ts.URL),
			IngestRequest{Batches: []Batch{b}}); resp.StatusCode != 202 {
			t.Fatalf("ingest %d: %d %s", i, resp.StatusCode, body)
		}
	}
	// Late subscription to the finished run replays everything and closes.
	stream, err := http.Get(ts.URL + "/v1/sessions/framing/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	raw, err := io.ReadAll(stream.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if got := strings.Count(text, "event: estimate\n"); got != len(batches) {
		t.Fatalf("%d estimate events, want %d\n%s", got, len(batches), text)
	}
	if !strings.Contains(text, "event: done\n") {
		t.Fatalf("missing done event:\n%s", text)
	}
	recs := readSSE(t, strings.NewReader(text))
	if len(recs) != len(batches) {
		t.Fatalf("parsed %d records, want %d", len(recs), len(batches))
	}
	if !recs[1].HaveEst || recs[0].HaveEst {
		t.Fatalf("estimate validity pattern wrong: first %+v second %+v", recs[0], recs[1])
	}
}
