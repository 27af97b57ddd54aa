// Package trace records per-iteration tracking runs for offline analysis:
// each filter iteration becomes one Record (truth, estimate, error,
// detection and holder counts, communication deltas), and a Recorder writes
// the collected series as CSV or JSON Lines. cmd/cdpfsim uses it for its
// -trace flag; tests use it to assert on whole-run shapes.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Record is one filter iteration of one tracking run.
type Record struct {
	K    int     `json:"k"`
	Time float64 `json:"t"`

	TruthX float64 `json:"truth_x"`
	TruthY float64 `json:"truth_y"`

	// Estimate fields are meaningful only when HaveEst; EstForK names the
	// iteration the estimate refers to (CDPF estimates lag one iteration).
	HaveEst bool    `json:"have_est"`
	EstForK int     `json:"est_for_k"`
	EstX    float64 `json:"est_x"`
	EstY    float64 `json:"est_y"`
	Err     float64 `json:"err_m"`

	Detectors  int   `json:"detectors"`
	Holders    int   `json:"holders"` // -1 when the algorithm has no notion
	MsgsDelta  int64 `json:"msgs"`
	BytesDelta int64 `json:"bytes"`
}

// Recorder accumulates a run's records.
type Recorder struct {
	Algo    string
	Density float64
	Seed    uint64
	Records []Record
}

// New returns an empty recorder tagged with run metadata.
func New(algo string, density float64, seed uint64) *Recorder {
	return &Recorder{Algo: algo, Density: density, Seed: seed}
}

// Add appends one iteration record.
func (r *Recorder) Add(rec Record) { r.Records = append(r.Records, rec) }

// Len returns the number of recorded iterations.
func (r *Recorder) Len() int { return len(r.Records) }

// RMSE returns the root-mean-squared error over recorded estimates, or NaN
// when none were recorded.
func (r *Recorder) RMSE() float64 {
	sum, n := 0.0, 0
	for _, rec := range r.Records {
		if rec.HaveEst {
			sum += rec.Err * rec.Err
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Sqrt(sum / float64(n))
}

// TotalBytes sums the per-iteration communication deltas.
func (r *Recorder) TotalBytes() int64 {
	var total int64
	for _, rec := range r.Records {
		total += rec.BytesDelta
	}
	return total
}

// WriteCSV writes a header plus one row per iteration. The table is built
// in memory and written in one call, so writing to a file costs one write,
// not one per row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	buf := make([]byte, 0, 96*(len(r.Records)+1))
	buf = append(buf, "k,t,truth_x,truth_y,have_est,est_for_k,est_x,est_y,err_m,detectors,holders,msgs,bytes\n"...)
	for _, rec := range r.Records {
		have := 0
		if rec.HaveEst {
			have = 1
		}
		buf = fmt.Appendf(buf, "%d,%.3f,%.4f,%.4f,%d,%d,%.4f,%.4f,%.4f,%d,%d,%d,%d\n",
			rec.K, rec.Time, rec.TruthX, rec.TruthY, have, rec.EstForK,
			rec.EstX, rec.EstY, rec.Err, rec.Detectors, rec.Holders,
			rec.MsgsDelta, rec.BytesDelta)
	}
	_, err := w.Write(buf)
	return err
}

// WriteJSONL writes one JSON object per iteration, preceded by a metadata
// line ({"algo":..., "density":..., "seed":...}).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	meta := struct {
		Algo    string  `json:"algo"`
		Density float64 `json:"density"`
		Seed    uint64  `json:"seed"`
	}{r.Algo, r.Density, r.Seed}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, rec := range r.Records {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
