package kernel

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/statex"
)

// FuzzBearingLLBatchMatchesScalar drives the bearing kernels against their
// scalar references — statex.BearingSensor.LogLikelihood for the plain
// model, and scalarTerm's effective-sigma/gate/clamp composition for the
// quantization and gating variants — and requires bit-identical float64
// results, term by term and summed, including the TailNu Student-t path and
// residuals straddling the ±π wrap seam.
func FuzzBearingLLBatchMatchesScalar(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 10.0, 10.0, 0.05, 0.0, 0.0, 0.0)
	f.Add(5.0, -3.0, math.Pi, -20.0, 4.0, 0.05, 4.0, 0.0, 0.0)                 // Student-t
	f.Add(100.0, 100.0, -math.Pi+1e-15, 100.3, 99.7, 0.2, 0.0, 1.1, 4.0)       // seam + quant + gate
	f.Add(1.0, 2.0, 3.0, 1.0, 2.0, 0.05, 4.0, 1.1, 4.0)                        // from == cand (d = 0)
	f.Add(-50.0, 75.0, 2*math.Pi+0.25, 0.0, 0.0, 1e-3, 2.5, 0.5, 1.5)          // out-of-range bearing, tight sigma
	f.Add(0.0, 0.0, math.Nextafter(math.Pi, 4), 1.0, 0.0, 0.05, 0.0, 0.0, 0.0) // just past +π

	f.Fuzz(func(t *testing.T, fx, fy, z, cx, cy, sigma, nu, quant, gate float64) {
		// Clamp the model parameters to the domains the constructors accept;
		// coordinates and bearings stay arbitrary (any finite float is legal).
		if !finiteAll(fx, fy, z, cx, cy, sigma, nu, quant, gate) {
			t.Skip()
		}
		if sigma <= 0 || sigma > 1e6 || nu < 0 || nu > 1e6 {
			t.Skip()
		}
		if gate != 0 && gate < 1 {
			gate = 1
		}
		if quant < 0 {
			quant = 0
		}
		if gate < 0 {
			gate = 0
		}
		fxs := []float64{fx, cx, fx}
		fys := []float64{fy, cy, fy}
		zs := []float64{z, -z, z + math.Pi}

		// Plain model: each term and the ordered sum must match statex.
		s := statex.BearingSensor{SigmaN: sigma, TailNu: nu}
		plain := NewBearing(sigma, nu, 0, 0)
		joint := 0.0
		for i := range zs {
			term := s.LogLikelihood(mathx.V2(fxs[i], fys[i]), zs[i], mathx.V2(cx, cy))
			want := 0.0
			want += term
			if got := plain.JointLogLik(fxs[i:i+1], fys[i:i+1], zs[i:i+1], cx, cy); !sameFloat(got, want) {
				t.Fatalf("JointLogLik term %d = %x, statex scalar = %x", i, got, want)
			}
			joint += term
		}
		if got := plain.JointLogLik(fxs, fys, zs, cx, cy); !sameFloat(got, joint) {
			t.Fatalf("JointLogLik = %x, statex sum = %x", got, joint)
		}

		// Full tracker model (quantization inflation + innovation gate):
		// must match the scalarTerm composition, term by term and summed.
		b := NewBearing(sigma, nu, quant, gate)
		dist := make([]float64, len(zs))
		for i := range dist {
			dist[i] = math.Hypot(fxs[i]-cx, fys[i]-cy)
		}
		joint = 0.0
		for i := range zs {
			term := scalarTerm(b, fxs[i], fys[i], zs[i], cx, cy)
			want := 0.0
			want += term
			if got := b.JointLogLik(fxs[i:i+1], fys[i:i+1], zs[i:i+1], cx, cy); !sameFloat(got, want) {
				t.Fatalf("quant/gate JointLogLik term %d = %x, scalar = %x", i, got, want)
			}
			joint += term
		}
		if got := b.JointLogLik(fxs, fys, zs, cx, cy); !sameFloat(got, joint) {
			t.Fatalf("quant/gate JointLogLik = %x, scalar sum = %x", got, joint)
		}
		mask := []bool{true, false, true}
		got, _, _ := b.MaskedSum(fxs, fys, zs, dist, mask, cx, cy)
		want := scalarTerm(b, fxs[0], fys[0], zs[0], cx, cy) + scalarTerm(b, fxs[2], fys[2], zs[2], cx, cy)
		if !sameFloat(got, want) {
			t.Fatalf("MaskedSum = %x, scalar = %x", got, want)
		}
	})
}

func finiteAll(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// sameFloat is bit equality with NaN == NaN (degenerate inputs can push the
// scalar and batched paths to NaN; both must agree they did).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b))
}
