package filter

import (
	"math"
	"slices"

	"repro/internal/mathx"
	"repro/internal/recycle"
)

// Resampler draws n equally weighted particles from a weighted set,
// eliminating low-weight particles and multiplying high-weight ones
// (the degeneracy-reduction step of generic PFs).
type Resampler interface {
	// Resample returns a new set of n particles, each with weight 1/n,
	// drawn (scheme-dependently) according to the weights of src. src is
	// not modified. It panics when src is empty or n <= 0.
	Resample(src *Set, n int, rng *mathx.RNG) *Set
	// Name identifies the scheme in reports and benchmarks.
	Name() string
}

func resampleGuard(src *Set, n int) {
	if src.Len() == 0 {
		panic("filter: resample of empty set")
	}
	if n <= 0 {
		panic("filter: resample to non-positive size")
	}
}

// counter is a resampling scheme's core: from the normalized weights w it
// adds to counts[i] the number of copies of particle i, n copies in all.
type counter interface {
	count(w []float64, counts []int, n int, rng *mathx.RNG)
}

// resampleBuf is one resampling's working memory: the normalized weight
// copy, the copy counts and the output particles.
type resampleBuf struct {
	w      []float64
	counts []int
	out    []Particle
}

// resample draws n equally weighted particles from src with scheme c into
// the buffer's output slice and returns it. src is not modified and must not
// share memory with the buffer's output.
func (b *resampleBuf) resample(c counter, src *Set, n int, rng *mathx.RNG) []Particle {
	resampleGuard(src, n)
	// Normalized weights, falling back to uniform for a degenerate total.
	b.w = recycle.Slice(b.w, len(src.P))
	for i := range src.P {
		b.w[i] = src.P[i].W
	}
	mathx.Normalize(b.w)
	b.counts = recycle.Slice(b.counts, len(src.P))
	c.count(b.w, b.counts, n, rng)
	out := slices.Grow(b.out[:0], n)
	w := 1.0 / float64(n)
	for i, k := range b.counts {
		for j := 0; j < k; j++ {
			p := src.P[i]
			p.W = w
			out = append(out, p)
		}
	}
	b.out = out
	return out
}

// Multinomial is independent categorical resampling: each output particle is
// an i.i.d. draw from the weight distribution. Highest variance, simplest.
type Multinomial struct{}

// Name implements Resampler.
func (Multinomial) Name() string { return "multinomial" }

// Resample implements Resampler.
func (m Multinomial) Resample(src *Set, n int, rng *mathx.RNG) *Set {
	return &Set{P: new(resampleBuf).resample(m, src, n, rng)}
}

func (Multinomial) count(w []float64, counts []int, n int, rng *mathx.RNG) {
	// Cumulative distribution + inverse-CDF sampling per draw.
	cdf := make([]float64, len(w))
	acc := 0.0
	for i, wi := range w {
		acc += wi
		cdf[i] = acc
	}
	cdf[len(cdf)-1] = 1 // guard against rounding
	for k := 0; k < n; k++ {
		u := rng.Float64()
		counts[searchCDF(cdf, u)]++
	}
}

// searchCDF returns the smallest index i with cdf[i] > u (binary search).
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Systematic is low-variance systematic resampling: a single uniform offset
// u ~ U[0, 1/n) generates the n stratified points u + k/n. This is the
// default scheme for all algorithms in the paper reproduction.
type Systematic struct{}

// Name implements Resampler.
func (Systematic) Name() string { return "systematic" }

// Resample implements Resampler.
func (s Systematic) Resample(src *Set, n int, rng *mathx.RNG) *Set {
	return &Set{P: new(resampleBuf).resample(s, src, n, rng)}
}

func (Systematic) count(w []float64, counts []int, n int, rng *mathx.RNG) {
	u := rng.Float64() / float64(n)
	acc := 0.0
	i := 0
	for k := 0; k < n; k++ {
		point := u + float64(k)/float64(n)
		for acc+w[i] < point && i < len(w)-1 {
			acc += w[i]
			i++
		}
		counts[i]++
	}
}

// Stratified resampling draws one uniform point per stratum [k/n, (k+1)/n).
type Stratified struct{}

// Name implements Resampler.
func (Stratified) Name() string { return "stratified" }

// Resample implements Resampler.
func (s Stratified) Resample(src *Set, n int, rng *mathx.RNG) *Set {
	return &Set{P: new(resampleBuf).resample(s, src, n, rng)}
}

func (Stratified) count(w []float64, counts []int, n int, rng *mathx.RNG) {
	acc := 0.0
	i := 0
	for k := 0; k < n; k++ {
		point := (float64(k) + rng.Float64()) / float64(n)
		for acc+w[i] < point && i < len(w)-1 {
			acc += w[i]
			i++
		}
		counts[i]++
	}
}

// Residual resampling copies floor(n*w_i) of particle i deterministically and
// fills the remainder multinomially from the fractional residuals.
type Residual struct{}

// Name implements Resampler.
func (Residual) Name() string { return "residual" }

// Resample implements Resampler.
func (r Residual) Resample(src *Set, n int, rng *mathx.RNG) *Set {
	return &Set{P: new(resampleBuf).resample(r, src, n, rng)}
}

func (Residual) count(w []float64, counts []int, n int, rng *mathx.RNG) {
	resid := make([]float64, len(w))
	assigned := 0
	for i, wi := range w {
		exp := wi * float64(n)
		c := int(math.Floor(exp))
		counts[i] = c
		resid[i] = exp - float64(c)
		assigned += c
	}
	residTotal := mathx.Sum(resid)
	for assigned < n {
		if residTotal <= 0 {
			// Residuals exhausted by rounding: fall back to uniform fill.
			counts[rng.Intn(len(w))]++
		} else {
			counts[rng.Categorical(resid)]++
		}
		assigned++
	}
}

// Resamplers lists every available scheme, used by the resampling ablation
// experiment.
func Resamplers() []Resampler {
	return []Resampler{Systematic{}, Multinomial{}, Stratified{}, Residual{}}
}
