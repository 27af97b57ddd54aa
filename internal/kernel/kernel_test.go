package kernel

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/statex"
)

// scalarTerm is the independent scalar reference for one bearing term: the
// tracker's effective sigma (core.Tracker.effSigma), the gate clamp, and
// mathx's log densities, written out term by term. The kernels must match
// it bit for bit.
func scalarTerm(b Bearing, fx, fy, z, cx, cy float64) float64 {
	sigma := b.SigmaN
	if b.QuantSigma > 0 {
		d := math.Hypot(fx-cx, fy-cy)
		if d < 1 {
			d = 1
		}
		q := b.QuantSigma / d
		sigma = math.Sqrt(sigma*sigma + q*q)
	}
	resid := mathx.AngleDiff(z, mathx.V2(cx, cy).Sub(mathx.V2(fx, fy)).Angle())
	if gate := b.GateSigma; gate > 0 && math.Abs(resid) > gate*sigma {
		if b.TailNu <= 0 {
			resid = gate * sigma
		}
	}
	if b.TailNu > 0 {
		return mathx.StudentTLogPDF(resid, 0, sigma, b.TailNu)
	}
	return mathx.GaussianLogPDF(resid, 0, sigma)
}

func kernelVariants() []Bearing {
	return []Bearing{
		NewBearing(0.05, 0, 0, 0),   // paper Gaussian
		NewBearing(0.05, 0, 1.1, 0), // quantization inflation
		NewBearing(0.05, 0, 1.1, 4), // + innovation gate
		NewBearing(0.05, 4, 1.1, 4), // hardened: Student-t + gate
		NewBearing(0.2, 2.5, 0, 0),  // bare Student-t
	}
}

func testColumns() (fx, fy, z []float64, cx, cy float64) {
	rng := mathx.NewRNG(7)
	n := 37
	fx = make([]float64, n)
	fy = make([]float64, n)
	z = make([]float64, n)
	for i := range fx {
		fx[i] = rng.Uniform(0, 200)
		fy[i] = rng.Uniform(0, 200)
		z[i] = rng.Uniform(-math.Pi, math.Pi)
	}
	// Exercise the ±π wrap seam explicitly.
	z[0] = math.Pi
	z[1] = -math.Pi + 1e-12
	z[2] = math.Nextafter(math.Pi, 0)
	return fx, fy, z, 101.25, 97.5
}

// TestJointLogLikMatchesStatex requires the sink filter's joint kernel to be
// the ordered sum of statex.BearingSensor.LogLikelihood terms for the plain
// model, and of scalarTerm for every quantized and gated variant.
func TestJointLogLikMatchesStatex(t *testing.T) {
	fx, fy, z, cx, cy := testColumns()
	for _, s := range []statex.BearingSensor{{SigmaN: 0.05}, {SigmaN: 0.05, TailNu: 4}} {
		b := NewBearing(s.SigmaN, s.TailNu, 0, 0)
		want := 0.0
		for i := range z {
			want += s.LogLikelihood(mathx.V2(fx[i], fy[i]), z[i], mathx.V2(cx, cy))
		}
		if got := b.JointLogLik(fx, fy, z, cx, cy); got != want {
			t.Fatalf("sensor %+v: joint %x want %x", s, got, want)
		}
	}
	for _, b := range kernelVariants() {
		want := 0.0
		for i := range z {
			want += scalarTerm(b, fx[i], fy[i], z[i], cx, cy)
		}
		if got := b.JointLogLik(fx, fy, z, cx, cy); got != want {
			t.Fatalf("kernel %+v: joint %x want %x", b, got, want)
		}
	}
}

func TestMaskedSumMatchesScalar(t *testing.T) {
	fx, fy, z, cx, cy := testColumns()
	dist := make([]float64, len(z))
	mask := make([]bool, len(z))
	for i := range dist {
		dist[i] = math.Hypot(fx[i]-cx, fy[i]-cy)
		mask[i] = i%3 != 0
	}
	for _, b := range kernelVariants() {
		got, heard, _ := b.MaskedSum(fx, fy, z, dist, mask, cx, cy)
		want := 0.0
		anyTerm := false
		for i := range mask {
			if mask[i] {
				anyTerm = true
				want += scalarTerm(b, fx[i], fy[i], z[i], cx, cy)
			}
		}
		if got != want || heard != anyTerm {
			t.Fatalf("kernel %+v: masked sum %x (heard %v) want %x (%v)", b, got, heard, want, anyTerm)
		}
	}
}

func TestContributionsMatchesScalar(t *testing.T) {
	x, y, _, px, py := testColumns()
	c := make([]float64, len(x))
	const minDist = 1e-3
	Contributions(c, x, y, px, py, minDist)
	// Scalar replica of core.EstimateContributionsInto's two passes.
	want := make([]float64, len(x))
	d := 0.0
	for i := range x {
		dist := math.Hypot(x[i]-px, y[i]-py)
		if dist < minDist {
			dist = minDist
		}
		want[i] = 1 / dist
		d += want[i]
	}
	total := 0.0
	for i := range want {
		want[i] /= d
		if c[i] != want[i] {
			t.Fatalf("contribution %d: got %x want %x", i, c[i], want[i])
		}
		total += c[i]
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("contributions sum %v, want 1", total)
	}
}

func TestOverheardSumMatchesScalar(t *testing.T) {
	bx, by, bw, _, _ := testColumns()
	ids := make([]int32, len(bx))
	for i := range ids {
		ids[i] = int32(i)
	}
	rx, ry, commR := 100.0, 100.0, 30.0
	for _, rid := range []int32{0, 5, 999} {
		got := OverheardSum(bx, by, bw, ids, rid, rx, ry, commR)
		want := 0.0
		for i := range bw {
			if ids[i] == rid {
				want += bw[i]
				continue
			}
			if math.Hypot(bx[i]-rx, by[i]-ry) > commR {
				continue
			}
			want += bw[i]
		}
		if got != want {
			t.Fatalf("rid %d: got %x want %x", rid, got, want)
		}
	}
}

func TestPropagateCV(t *testing.T) {
	px := []float64{1, 2}
	py := []float64{3, 4}
	vx := []float64{0.5, -0.5}
	vy := []float64{0.25, 0}
	PropagateCV(px, py, vx, vy, 2)
	if px[0] != 2 || px[1] != 1 || py[0] != 3.5 || py[1] != 4 {
		t.Fatalf("PropagateCV: got %v %v", px, py)
	}
	nx := []float64{0.1, 0.2}
	ny := []float64{-0.1, -0.2}
	PropagateCVNoise(px, py, vx, vy, nx, ny, 2)
	if vx[0] != 0.6 || vy[1] != -0.2 {
		t.Fatalf("PropagateCVNoise: got %v %v", vx, vy)
	}
}

// TestKernelAllocFree enforces the 0 allocs/op budget on every kernel
// (DESIGN.md §16): these run inside the tracker's steady-state Step, whose
// own budget is <1 alloc averaged over 100 iterations.
func TestKernelAllocFree(t *testing.T) {
	fx, fy, z, cx, cy := testColumns()
	dst := make([]float64, len(z))
	dist := make([]float64, len(z))
	mask := make([]bool, len(z))
	for i := range dist {
		dist[i] = math.Hypot(fx[i]-cx, fy[i]-cy)
		mask[i] = true
	}
	ids := make([]int32, len(z))
	b := NewBearing(0.05, 4, 1.1, 4)
	cases := map[string]func(){
		"JointLogLik":      func() { b.JointLogLik(fx, fy, z, cx, cy) },
		"MaskedSum":        func() { b.MaskedSum(fx, fy, z, dist, mask, cx, cy) },
		"Contributions":    func() { Contributions(dst, fx, fy, cx, cy, 1e-3) },
		"OverheardSum":     func() { OverheardSum(fx, fy, z, ids, 3, cx, cy, 30) },
		"PropagateCV":      func() { PropagateCV(fx, fy, dst, z, 5) },
		"PropagateCVNoise": func() { PropagateCVNoise(fx, fy, dst, z, dist, dst, 5) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
