// Package experiments reproduces the paper's evaluation (Table I,
// Figs. 4–6) and the extension studies (failure tolerance, duty-cycled
// energy, resampling ablation, design ablations, robustness sweeps).
//
// RunCell is the one tracking loop: it runs a single spec/v1 cell, and every
// cell-shaped experiment is a grid of cells fanned out on the fleet
// (Exec.runGrid) and relabeled for its table. The studies that are not a
// grid of cells — the comm-radius sweep, the latency and aggregation
// comparisons, the resampler ablation, SDPF's particle-budget probe, the
// always-on duty-cycle row — keep their own loops. The cmd/benchtab binary
// and the repository's benchmarks are thin wrappers over these functions.
package experiments

import "fmt"

// Algo names one of the four evaluated algorithms.
type Algo string

// The four algorithms of Section VI, plus DPF (Table I's compressed
// centralized row, not part of the paper's figures).
const (
	AlgoCPF    Algo = "cpf"
	AlgoDPF    Algo = "dpf"
	AlgoSDPF   Algo = "sdpf"
	AlgoCDPF   Algo = "cdpf"
	AlgoCDPFNE Algo = "cdpf-ne"
)

// AllAlgos returns the four evaluated algorithms in the paper's
// presentation order (Figs. 5 and 6).
func AllAlgos() []Algo { return []Algo{AlgoCPF, AlgoSDPF, AlgoCDPF, AlgoCDPFNE} }

// AllAlgosExtended additionally includes DPF, completing Table I's five
// rows empirically.
func AllAlgosExtended() []Algo {
	return []Algo{AlgoCPF, AlgoDPF, AlgoSDPF, AlgoCDPF, AlgoCDPFNE}
}

// ParseAlgo resolves a name to an Algo.
func ParseAlgo(name string) (Algo, error) {
	switch Algo(name) {
	case AlgoCPF, AlgoDPF, AlgoSDPF, AlgoCDPF, AlgoCDPFNE:
		return Algo(name), nil
	}
	return "", fmt.Errorf("experiments: unknown algorithm %q (want cpf, dpf, sdpf, cdpf, cdpf-ne)", name)
}

// Seeds returns the canonical seed list for n repetitions (the paper runs
// ten repetitions per configuration).
func Seeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i+1) * 31
	}
	return out
}

// PaperDensities returns the evaluation's density grid (5..40 per 100 m²).
func PaperDensities() []float64 { return []float64{5, 10, 15, 20, 25, 30, 35, 40} }
