// Package serve is the online tracking service: it hosts many concurrent
// tracking sessions over the existing core.Tracker.Step API, each session
// being the served twin of one offline spec/v1 cell run (cdpfsim -spec,
// experiments.RunCell). Sessions are hashed onto a fixed pool of shard
// goroutines (one goroutine per shard, every session owned by exactly one
// shard), measurements stream in over HTTP as JSON batches, and
// per-iteration estimates stream back out as Server-Sent Events.
//
// The determinism contract is the whole point of the design: a served
// session fed the observations an offline run would have generated produces
// a trace byte-identical to that offline run (see OfflineTrace and the
// equivalence test). The service is a transport around the reproduction, not
// a fork of it — the per-iteration record construction is one shared code
// path, the tracker RNG is the same sc.RNG(1) stream cdpfsim consumes, and
// measurements survive the JSON hop exactly (encoding/json round-trips
// finite float64 values bit-exactly).
//
// Overload degrades predictably instead of OOMing: every session has a
// bounded ingestion-queue budget (429 when the caller overruns it) and every
// shard a bounded work queue (503 when the server as a whole is saturated),
// so memory is bounded by shards x queue depth and in-flight sessions keep
// stepping while new work is shed.
package serve

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/scenario"
	cellspec "repro/internal/spec"
	"repro/internal/trace"
)

// SessionSpec is the body of POST /v1/sessions: one declarative spec/v1
// cell (see internal/spec; "cdpfsim -spec" and cdpfmatrix run the same
// cells offline) configures the whole session — scenario, loss model, fault
// schedule, tracker config — so the service validates it through exactly
// the paths the offline runs enforce.
type SessionSpec struct {
	// ID optionally names the session; the server assigns "s-<n>" when
	// empty. IDs must be unique among live sessions.
	ID string `json:"id,omitempty"`
	// Cell is the session's configuration; a spec without one is rejected.
	// Only serveable cells are admitted: algo cdpf or cdpf-ne with no
	// duty-cycle, mobility, or multi-target axis, since those need machinery
	// the online step loop does not run.
	Cell *cellspec.Axes `json:"cell,omitempty"`
	// Queue is the per-session ingestion-queue budget (measurement batches
	// admitted but not yet stepped); 0 defaults to DefaultSessionQueue.
	// Admission beyond the budget is rejected with 429.
	Queue int `json:"queue,omitempty"`
}

// DefaultSessionQueue is the per-session ingestion budget when
// SessionSpec.Queue is zero.
const DefaultSessionQueue = 16

// normalize fills the cell's defaults and the queue budget. Validation
// proper happens in buildSession.
func (s SessionSpec) normalize() SessionSpec {
	if s.Cell != nil {
		ax := s.Cell.Normalized()
		s.Cell = &ax
	}
	if s.Queue <= 0 {
		s.Queue = DefaultSessionQueue
	}
	return s
}

// decodeSpec parses a logged session spec — a WAL create record or a
// snapshot's spec bytes — into its normalized form. Records logged before
// the cell became the only spelling carry "scenario" and "tracker" objects
// instead of a cell; such a record converts to the cell whose scenario
// parameters and tracker config (hardened "off") equal the logged ones, or
// fails. (Cell records of that era also carry a zero "scenario" object,
// which is ignored.)
func decodeSpec(b []byte) (SessionSpec, error) {
	var logged struct {
		SessionSpec
		Scenario scenario.Params `json:"scenario"`
		Tracker  *legacyTracker  `json:"tracker"`
	}
	if err := json.Unmarshal(b, &logged); err != nil {
		return SessionSpec{}, err
	}
	spec, p, cfg := logged.SessionSpec, logged.Scenario.WithDefaults(), logged.Tracker
	if spec.Cell == nil && cfg != nil {
		ax := cellspec.Axes{
			Algo: "cdpf", Density: p.Density, Seed: p.Seed, Steps: p.Steps, Dt: p.Dt, SigmaN: p.SigmaN,
			Fail: p.FailFraction, Sleep: p.SleepFraction,
			SensorFault: p.SensorFault.Kind.String(), SensorFaultFrac: p.SensorFault.Fraction,
			SensorFaultMag: p.SensorFault.Magnitude, Hardened: "off",
		}
		if cfg.UseNE {
			ax.Algo = "cdpf-ne"
		}
		sp, serr := ax.ScenarioParams()
		tc, terr := ax.TrackerConfig()
		if serr != nil || terr != nil || sp != p || !reflect.DeepEqual(tc, cfg.Config) || !cfg.foldedFieldsMatch() {
			return SessionSpec{}, fmt.Errorf("legacy scenario/tracker spec has no equivalent cell")
		}
		spec.Cell = &ax
	}
	return spec.normalize(), nil
}

// legacyTracker is a logged legacy "tracker" object: core.Config plus the
// fields the tracker has since folded into constants. json.Unmarshal would
// silently drop a field the struct no longer names, so they stay named here:
// a record that set one to anything but its constant has no equivalent cell.
type legacyTracker struct {
	core.Config
	PredictRadius      float64
	RecordThreshold    float64
	DropFraction       float64
	InitWeight         float64
	MaxHolders         int
	RebroadcastBackoff float64
	QuarantineDevSigma float64
}

// foldedFieldsMatch reports whether every folded field is zero (the old
// "use the default" spelling) or equals the value of the core constant that
// replaced it (recordThreshold, dropFraction, initWeight, maxHolders,
// rebroadcastBackoff, quarDevSigma). PredictRadius only matches at zero: a
// nonzero value never meant "the network's sensing radius".
func (t *legacyTracker) foldedFieldsMatch() bool {
	is := func(v, constant float64) bool { return v == 0 || v == constant }
	return t.PredictRadius == 0 && is(t.RecordThreshold, 0.3) && is(t.DropFraction, 0.3) &&
		is(t.InitWeight, 1) && (t.MaxHolders == 0 || t.MaxHolders == 256) &&
		is(t.RebroadcastBackoff, 1.5) && is(t.QuarantineDevSigma, 3)
}

// Measurement is one node's bearing observation, the wire form of
// core.Observation.
type Measurement struct {
	Node    int     `json:"node"`
	Bearing float64 `json:"bearing"`
}

// Batch carries the measurements of one filter iteration. K must be the
// session's next unstepped iteration: the service is an online filter, not a
// random-access replayer, so out-of-order batches are rejected at admission.
type Batch struct {
	K   int           `json:"k"`
	Obs []Measurement `json:"obs"`
}

// IngestRequest is the body of POST /v1/sessions/{id}/measurements: one or
// more consecutive iteration batches.
type IngestRequest struct {
	Batches []Batch `json:"batches"`
}

// IngestResponse reports how many batches were admitted to the session's
// queue.
type IngestResponse struct {
	Accepted int `json:"accepted"`
	// NextK is the next iteration the session expects to be fed.
	NextK int `json:"next_k"`
}

// SessionInfo is the body of GET /v1/sessions/{id} and the create response.
type SessionInfo struct {
	ID         string  `json:"id"`
	Shard      int     `json:"shard"`
	Iterations int     `json:"iterations"` // total filter iterations (Steps+1)
	NextK      int     `json:"next_k"`     // next iteration to be fed
	Stepped    int     `json:"stepped"`    // iterations completed
	Done       bool    `json:"done"`
	Queue      int     `json:"queue"`  // ingestion budget
	Queued     int     `json:"queued"` // batches admitted, not yet stepped
	Nodes      int     `json:"nodes"`
	RMSE       float64 `json:"rmse"` // 0 until the first estimate exists (RMSE is strictly positive after)
}

// Estimate is one SSE "estimate" event payload: the canonical per-iteration
// trace record, exactly as the offline trace would hold it. The stream URL
// names the session, so the payload carries no session identity — the wire
// bytes and the offline records stay one shape.
type Estimate = trace.Record

// SessionList is the body of GET /admin/sessions: the live session IDs,
// sorted.
type SessionList struct {
	Sessions []string `json:"sessions"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
// RequestID echoes the request's X-Request-Id so a failure logged anywhere
// in a cluster can be traced back to the originating call.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func errf(format string, args ...interface{}) errorBody {
	return errorBody{Error: fmt.Sprintf(format, args...)}
}
