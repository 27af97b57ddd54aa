package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/spec"
)

// TestBaselineFingerprint pins the bit-level output of the three sink and
// mote baselines (cpf, dpf, sdpf) over 180 cells: d ∈ {5, 20, 40}, seeds
// 1–4, each clean, under iid loss, under bursty loss, under mid-run
// fail-stops, and under Byzantine sensors. TestGoldenDeterminism hashes a
// %.9f rendering of one loss-free cell and the published fig5/fig6 grids are
// loss-free, so neither exercises the per-link Delivers mask or the burst
// memo the baselines consult; this fingerprint does, over float64 bits.
func TestBaselineFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("180 baseline cells; skipped with -short")
	}
	const want = "33d6558dd95b1b77"
	conditions := []spec.Axes{
		{},
		{Loss: 0.3},
		{Loss: 0.3, Burst: 4},
		{FailFrac: 0.3},
		{SensorFault: "byzantine", SensorFaultFrac: 0.2},
	}
	h := fnv.New64a()
	cells := 0
	for _, algo := range []Algo{AlgoCPF, AlgoDPF, AlgoSDPF} {
		for _, d := range []float64{5, 20, 40} {
			for seed := uint64(1); seed <= 4; seed++ {
				for _, c := range conditions {
					ax := c
					ax.Algo, ax.Density, ax.Seed = string(algo), d, seed
					out, err := RunCell(context.Background(), ax)
					if err != nil {
						t.Fatalf("%+v: %v", ax, err)
					}
					for _, r := range out.Trace.Records {
						fmt.Fprintf(h, "%x,%x,%x,%d;", math.Float64bits(r.EstX), math.Float64bits(r.EstY), math.Float64bits(r.Err), r.K)
					}
					fmt.Fprintf(h, "b%d;m%d|", out.Result.Bytes(), out.Result.Comm.TotalMsgs())
					cells++
				}
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("baseline fingerprint over %d cells = %s, want %s", cells, got, want)
	}
}
