// Package fft implements the radix-2 fast Fourier transforms needed by the
// tomographic reconstruction kernels: the ramp-filter convolution in
// filtered back projection and the polar-to-Cartesian resampling in the
// gridrec-style Fourier reconstruction. Only power-of-two lengths are
// supported; callers pad with NextPow2.
//
// Transforms are plan-based: a Plan for a given length precomputes the
// bit-reversal permutation and the full twiddle table (each factor
// evaluated directly from sin/cos, rather than by the error-accumulating
// w *= wStep recurrence), so the steady-state transform performs no trig,
// no allocation, and no redundant setup. Plans are cached per size and
// safe for concurrent use; the package-level Forward/Inverse helpers look
// the plan up transparently.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// cplx is the pair of complex widths a plan is instantiated at.
type cplx interface{ complex64 | complex128 }

// plan holds the precomputed state for transforms of one length at one
// complex width: the bit-reversal swap list and twiddle tables for both
// directions. A plan is immutable after construction and safe for
// concurrent use by any number of goroutines; per-call state lives
// entirely in the caller's buffer.
type plan[C cplx] struct {
	n   int
	rev []int32 // flattened (i, j) swap pairs, i < j
	twF []C     // twF[k] = exp(-2πik/n), k < n/2
	twI []C     // twI[k] = exp(+2πik/n), k < n/2
}

// Plan is the double-precision plan.
type Plan = plan[complex128]

// Plan32 is the single-precision plan: the same source instantiated over
// complex64 buffers. It backs the float32 reconstruction kernel tier,
// where the halved memory traffic matters more than the last digits.
// Twiddles are evaluated in float64 and rounded once, so each factor
// carries only the single rounding of the final conversion.
type Plan32 = plan[complex64]

// planCache maps transform length to its plan, one cache per width: the
// two tiers key on the same lengths, and a shared map would need an
// interface-typed value plus a type assertion on every hot lookup.
type planCache[C cplx] struct {
	mu sync.RWMutex
	m  map[int]*plan[C]
}

var (
	plans   = planCache[complex128]{m: map[int]*plan[complex128]{}}
	plans32 = planCache[complex64]{m: map[int]*plan[complex64]{}}
)

// PlanFor returns the cached transform plan for power-of-two length n,
// building it on first use. It panics when n is not a positive power of
// two.
func PlanFor(n int) *Plan { return plans.get(n) }

// PlanFor32 returns the cached single-precision plan for power-of-two
// length n, building it on first use. It panics when n is not a positive
// power of two. PlanFor32(n) and PlanFor(n) are independent cache entries:
// requesting one tier never builds or evicts the other.
func PlanFor32(n int) *Plan32 { return plans32.get(n) }

func (c *planCache[C]) get(n int) *plan[C] {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	c.mu.RLock()
	p := c.m[n]
	c.mu.RUnlock()
	if p != nil {
		return p
	}
	p = newPlan[C](n)
	c.mu.Lock()
	if q, ok := c.m[n]; ok {
		p = q // another goroutine won the race; share its plan
	} else {
		c.m[n] = p
	}
	c.mu.Unlock()
	return p
}

func newPlan[C cplx](n int) *plan[C] {
	p := &plan[C]{n: n}
	if n <= 1 {
		return p
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			p.rev = append(p.rev, int32(i), int32(j))
		}
	}
	half := n / 2
	p.twF = make([]C, half)
	p.twI = make([]C, half)
	for k := 0; k < half; k++ {
		// Each twiddle is evaluated exactly at its own angle in float64
		// and converted once, so no rounding error accumulates across
		// the table at either width.
		s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		p.twF[k] = C(complex(c, -s))
		p.twI[k] = C(complex(c, s))
	}
	return p
}

// Forward computes the in-place forward DFT of x. len(x) must equal the
// plan length. The transform is unnormalized: Inverse(Forward(x)) == x
// (up to float32 rounding on a Plan32).
//
//perf:hot
func (p *plan[C]) Forward(x []C) {
	p.checkLen(x)
	p.scramble(x)
	p.butterflies(x, p.twF)
}

// Inverse computes the in-place inverse DFT of x, including the 1/N
// normalization. len(x) must equal the plan length.
//
//perf:hot
func (p *plan[C]) Inverse(x []C) {
	p.checkLen(x)
	p.scramble(x)
	p.butterflies(x, p.twI)
	if p.n > 1 {
		scale(x, p.n)
	}
}

// scale multiplies x componentwise by 1/n, which is exact for
// power-of-two n and so bit-identical to dividing by complex(n, 0). It is
// written per width because real, imag and complex are not defined on
// type parameters, and a generic x[i] *= C(complex(1/n, 0)) is a full
// complex multiply that is measurably slower and perturbs signed zeros.
// The any(x) in the switch does not escape, so it does not allocate (the
// AllocsPerRun tests on the tomo plans hold that at zero).
func scale[C cplx](x []C, n int) {
	switch x := any(x).(type) {
	case []complex128:
		s := 1 / float64(n)
		for i := range x {
			x[i] = complex(real(x[i])*s, imag(x[i])*s)
		}
	case []complex64:
		s := float32(1) / float32(n)
		for i := range x {
			x[i] = complex(real(x[i])*s, imag(x[i])*s)
		}
	}
}

// ConvolveInto circularly convolves x, in place, with the kernel whose
// forward frequency response is spec: x ← IFFT(FFT(x) ⊙ spec). spec is
// typically precomputed once (e.g. a windowed ramp filter) and reused for
// every call; the operation performs no allocations.
//
//perf:hot
func (p *plan[C]) ConvolveInto(x, spec []C) {
	p.checkLen(x)
	p.checkLen(spec)
	p.Forward(x)
	for i := range x {
		x[i] *= spec[i]
	}
	p.Inverse(x)
}

// ConvolveBatchInto convolves every contiguous length-n row of x with the
// kernel whose forward frequency response is spec, in place. len(x) must
// be a whole number of plan-length rows. The batch runs stage-by-stage —
// all forward transforms, one multiply sweep, all inverse transforms — so
// spec stays hot in cache across the whole sinogram instead of being
// re-streamed per row; per-row arithmetic is bit-identical to calling
// ConvolveInto row by row.
//
//perf:hot
func (p *plan[C]) ConvolveBatchInto(x, spec []C) {
	p.checkLen(spec)
	n := p.n
	if n == 0 || len(x)%n != 0 {
		p.badBatch(len(x))
	}
	rows := len(x) / n
	for r := 0; r < rows; r++ {
		p.Forward(x[r*n : (r+1)*n])
	}
	for r := 0; r < rows; r++ {
		row := x[r*n : (r+1)*n]
		for i := range row {
			row[i] *= spec[i]
		}
	}
	for r := 0; r < rows; r++ {
		p.Inverse(x[r*n : (r+1)*n])
	}
}

// Forward2D computes the forward DFT of the square n×n row-major image
// img (n being the plan length) using col as column scratch (len ≥ n).
// No allocations are performed.
func (p *plan[C]) Forward2D(img, col []C) {
	p.transform2D(img, col, false)
}

// Inverse2D computes the normalized inverse DFT of the square n×n image
// img using col as column scratch (len ≥ n). No allocations are performed.
func (p *plan[C]) Inverse2D(img, col []C) {
	p.transform2D(img, col, true)
}

func (p *plan[C]) transform2D(img, col []C, inverse bool) {
	n := p.n
	if len(img) != n*n {
		panic("fft: transform2D size mismatch")
	}
	if len(col) < n {
		panic("fft: transform2D column scratch too short")
	}
	col = col[:n]
	for y := 0; y < n; y++ {
		row := img[y*n : (y+1)*n]
		if inverse {
			p.Inverse(row)
		} else {
			p.Forward(row)
		}
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			col[y] = img[y*n+x]
		}
		if inverse {
			p.Inverse(col)
		} else {
			p.Forward(col)
		}
		for y := 0; y < n; y++ {
			img[y*n+x] = col[y]
		}
	}
}

// SplitPair separates the spectra of two real sequences a and b that were
// transformed together as one complex sequence a + i·b. On entry z holds
// that transform; on return z holds the spectrum of a and b that of b:
// bin k of each is (Z[k] + conj Z[-k])/2 and (Z[k] - conj Z[-k])/2i, both
// exactly Hermitian (DC and Nyquist real). len(b) == len(z), a power of
// two. No allocations are performed.
//
//perf:hot
func SplitPair(z, b []complex128) {
	n := len(z)
	if len(b) != n {
		panic("fft: SplitPair length mismatch")
	}
	h := n / 2
	for _, k := range [2]int{0, h} { // their own mirrors: a is the real part, b the imaginary
		zk := z[k]
		z[k], b[k] = complex(real(zk), 0), complex(imag(zk), 0)
	}
	for k := 1; k < h; k++ {
		zk, zm := z[k], z[n-k]
		ar, ai := (real(zk)+real(zm))*0.5, (imag(zk)-imag(zm))*0.5
		br, bi := (imag(zk)+imag(zm))*0.5, (real(zm)-real(zk))*0.5
		z[k], z[n-k] = complex(ar, ai), complex(ar, -ai)
		b[k], b[n-k] = complex(br, bi), complex(br, -bi)
	}
}

// BandSide is the side of the square band InverseHermitian2DBand computes
// for an n-point plan: the 2·band+1 samples within band of the wrapped
// origin, or all n when that covers the axis.
func BandSide(n, band int) int { return min(2*band+1, n) }

// BandIndex maps a wrapped index within band of the origin of an n-point
// axis to its position in the band: 0…band stay, n-band…n-1 follow them.
func BandIndex(x, n, band int) int {
	if x <= band {
		return x
	}
	return x - n + BandSide(n, band)
}

// InverseHermitian2DBand computes the real inverse 2-D DFT of an n×n
// spectrum H with H(-ky, -kx) = conj H(ky, kx) from its rows 0…n/2 alone,
// at the samples within band of the wrapped origin on both axes. half holds
// those n/2+1 rows and is overwritten. Rows 0 and n/2 are their own
// mirrors, and only their Hermitian part is used: the result is
// Re(Inverse2D) of the spectrum whose rows n/2+1…n-1 mirror rows n/2-1…1.
// After the row pass every column is Hermitian in ky, so two columns share
// one complex inverse, one in the real output and one in the imaginary.
// out receives the bw×bw band, bw = BandSide(n, band), row-major in
// BandIndex order. col is scratch of len ≥ 2n. No allocations are
// performed. It runs at either plan width; gridrec uses the float64 one.
//
//perf:hot
func InverseHermitian2DBand[C cplx, F float32 | float64](p *plan[C], half, col []C, out []F, band int) {
	n := p.n
	bw := BandSide(n, band)
	if len(half) != (n/2+1)*n || len(out) != bw*bw {
		panic("fft: InverseHermitian2DBand size mismatch")
	}
	if len(col) < 2*n {
		panic("fft: InverseHermitian2DBand column scratch too short")
	}
	for y := 0; y <= n/2; y++ {
		p.Inverse(half[y*n : (y+1)*n])
	}
	if bw == n {
		hermCols(p, half, col, out, band, 0, n)
		return
	}
	hermCols(p, half, col, out, band, 0, band+1)
	hermCols(p, half, col, out, band, n-band, n)
}

// hermCols inverse-transforms the row-transformed half-plane columns
// [x0, x1) into their band-image columns. Up to four adjacent columns — one
// 64-byte cache line of complex128 per row — are gathered per sweep, two
// per complex transform; an odd last column rides with a zero partner.
// real, imag and complex are not defined on type parameters, so samples
// pass through complex128, a no-op at that width and exact at complex64.
//
//perf:hot
func hermCols[C cplx, F float32 | float64](p *plan[C], half, col []C, out []F, band, x0, x1 int) {
	n, h := p.n, p.n/2
	bw := BandSide(n, band)
	for x := x0; x < x1; x += 4 {
		w := min(4, x1-x)
		for ky := 0; ky <= h; ky++ {
			r := half[ky*n+x : ky*n+x+w]
			for j := 0; j < w; j += 2 {
				a, b := complex128(r[j]), complex128(0)
				if j+1 < w {
					b = complex128(r[j+1])
				}
				// a + i·b at ky and its mirror conj a + i·conj b at -ky;
				// rows 0 and h keep their Hermitian (real) parts only.
				c := col[j/2*n : j/2*n+n]
				if ky == 0 || ky == h {
					c[ky] = C(complex(real(a), real(b)))
				} else {
					c[ky] = C(complex(real(a)-imag(b), imag(a)+real(b)))
					c[n-ky] = C(complex(real(a)+imag(b), real(b)-imag(a)))
				}
			}
		}
		for j := 0; j < w; j += 2 {
			p.Inverse(col[j/2*n : j/2*n+n])
		}
		xc := BandIndex(x, n, band)
		for yc := 0; yc < bw; yc++ {
			y := yc // BandIndex's inverse
			if yc > band {
				y += n - bw
			}
			o := out[yc*bw+xc : yc*bw+xc+w]
			for j := 0; j < w; j += 2 {
				v := complex128(col[j/2*n+y])
				o[j] = F(real(v))
				if j+1 < w {
					o[j+1] = F(imag(v))
				}
			}
		}
	}
}

func (p *plan[C]) checkLen(x []C) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: buffer length %d does not match plan length %d", len(x), p.n))
	}
}

// badBatch is the cold panic path of ConvolveBatchInto, kept out of the
// hot function so its formatting does not allocate there.
func (p *plan[C]) badBatch(got int) {
	panic(fmt.Sprintf("fft: batch length %d is not a multiple of plan length %d", got, p.n))
}

// scramble applies the precomputed bit-reversal permutation.
//
//perf:hot
func (p *plan[C]) scramble(x []C) {
	rev := p.rev
	for i := 0; i < len(rev); i += 2 {
		a, b := rev[i], rev[i+1]
		x[a], x[b] = x[b], x[a]
	}
}

// butterflies runs the iterative Cooley-Tukey stages against a twiddle
// table (forward or inverse).
//
//perf:hot
func (p *plan[C]) butterflies(x []C, tw []C) {
	n := p.n
	if n <= 1 {
		return
	}
	// First stage (size 2): all twiddles are 1, so pure add/sub.
	for i := 0; i < n; i += 2 {
		a, b := x[i], x[i+1]
		x[i], x[i+1] = a+b, a-b
	}
	for size := 4; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			k := 0
			for i := start; i < start+half; i++ {
				a := x[i]
				b := x[i+half] * tw[k]
				x[i] = a + b
				x[i+half] = a - b
				k += stride
			}
		}
	}
}

// Forward computes the in-place forward DFT of x. len(x) must be a power
// of two. The transform is unnormalized: Inverse(Forward(x)) == x.
func Forward(x []complex128) {
	if len(x) <= 1 {
		return
	}
	PlanFor(len(x)).Forward(x)
}

// Inverse computes the in-place inverse DFT of x, including the 1/N
// normalization. len(x) must be a power of two.
func Inverse(x []complex128) {
	if len(x) <= 1 {
		return
	}
	PlanFor(len(x)).Inverse(x)
}

// FreqIndex returns the signed frequency bin for index i of an n-point DFT,
// i.e. i for i < n/2 and i-n otherwise.
func FreqIndex(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}
