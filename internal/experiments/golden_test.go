package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/spec"
)

// TestGoldenDeterminism pins the end-to-end behavior of the whole pipeline:
// deployment, trajectory, observation noise, and every algorithm's
// estimates and communication are deterministic functions of the seed, so a
// fingerprint over the run results must never change unintentionally.
//
// If an intentional algorithm change breaks this test, verify the new
// behavior (go test ./... and cmd/benchtab shapes) and update the expected
// fingerprints below.
func TestGoldenDeterminism(t *testing.T) {
	want := map[Algo]string{
		AlgoCPF:    "a04ee687f79e1b20",
		AlgoDPF:    "f32f813d3dfa3851",
		AlgoSDPF:   "73b678edd24f7dce",
		AlgoCDPF:   "247b4bd770c3c3e2",
		AlgoCDPFNE: "e7976f36023ed3a5",
	}
	fingerprint := func(algo Algo) string {
		h := fnv.New64a()
		out, err := RunCell(context.Background(), spec.Axes{Algo: string(algo), Density: 10, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		r := out.Result
		for _, e := range r.Errors {
			fmt.Fprintf(h, "%.9f;", e)
		}
		fmt.Fprintf(h, "b%d;m%d", r.Bytes(), r.Comm.TotalMsgs())
		return fmt.Sprintf("%016x", h.Sum64())
	}
	for _, algo := range AllAlgosExtended() {
		a := fingerprint(algo)
		b := fingerprint(algo)
		if a != b {
			t.Fatalf("%s: non-deterministic fingerprint %s vs %s", algo, a, b)
		}
		if a != want[algo] {
			t.Errorf("%s: fingerprint %s, want %s", algo, a, want[algo])
		}
	}
}
