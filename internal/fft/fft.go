// Package fft implements the fast Fourier transforms needed by the
// tomographic reconstruction kernels: the ramp-filter and phase-filter
// convolutions and the polar-to-Cartesian resampling in the gridrec-style
// Fourier reconstruction. Only power-of-two lengths are supported; callers
// pad with NextPow2.
//
// Every transform runs on one radix-4 butterfly core, with one twiddle-free
// size-2 stage left over when log₂ n is odd. Transforms are plan-based: a
// Plan for a given length precomputes the bit-reversal permutation and the
// per-stage twiddle tables (each factor evaluated directly from sin/cos,
// rather than by the error-accumulating w *= wStep recurrence), so the
// steady-state transform performs no trig, no allocation, and no redundant
// setup. Plans are cached per size and safe for concurrent use; the
// package-level Forward/Inverse helpers look the plan up transparently.
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
// complex width: the bit-reversal swap list and index, and the twiddle
// tables for both directions. A plan is immutable after construction and
// safe for concurrent use by any number of goroutines; per-call state
// lives entirely in the caller's buffer.
type plan[C cplx] struct {
	n   int
	rev []int32 // flattened (i, j) swap pairs, i < j
	br  []int32 // br[k] = k with its log₂ n bits reversed
	// Radix-4 twiddles, one block per stage of size L ≥ 8, smallest L
	// first: w^k, w^2k, w^3k interleaved for k < L/4, w = exp(∓2πi/L).
	twF []C
	twI []C
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
	p := &plan[C]{n: n, br: make([]int32, n)}
	if n <= 1 {
		return p
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		p.br[i] = int32(j)
		if j > i {
			p.rev = append(p.rev, int32(i), int32(j))
		}
	}
	for L := firstStage(n); L <= n; L <<= 2 {
		for k := 0; k < 3*L/4; k++ {
			// Each twiddle is evaluated exactly at its own angle in
			// float64 and converted once, so no rounding error
			// accumulates across the table at either width.
			s, c := math.Sincos(2 * math.Pi * float64((k%3+1)*(k/3)) / float64(L))
			p.twF = append(p.twF, C(complex(c, -s)))
			p.twI = append(p.twI, C(complex(c, s)))
		}
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
	p.first(x, false)
	p.stages(x, p.twF, false, false, p.n)
}

// Inverse computes the in-place inverse DFT of x, including the 1/N
// normalization. len(x) must equal the plan length.
//
//perf:hot
func (p *plan[C]) Inverse(x []C) {
	p.checkLen(x)
	p.scramble(x)
	p.first(x, true)
	p.stages(x, p.twI, true, false, p.n)
	s := 1 / float64(p.n) // a power of two: exact, == dividing by n
	for k, v := range x {
		x[k] = scaled(v, s)
	}
}

// scaled is v·s for a real s, and mulI is i·v. real, imag and complex are
// not defined on type parameters, so v passes through complex128: a no-op
// at that width and exact at complex64.
func scaled[C cplx](v C, s float64) C {
	w := complex128(v)
	return C(complex(real(w)*s, imag(w)*s))
}

func mulI[C cplx](v C) C {
	w := complex128(v)
	return C(complex(-imag(w), real(w)))
}

// oddLog reports whether log₂ n is odd: the radix-4 stages then leave one
// size-2 stage over, and the first stage with twiddles has size 8, not 16.
func oddLog(n int) bool { return n&0x5555_5555_5555_5555 == 0 }

func firstStage(n int) int {
	if oddLog(n) {
		return 8
	}
	return 16
}

// first runs the decimation-in-time stage without twiddles: size 2 when
// log₂ n is odd, size 4 otherwise.
//
//perf:hot
func (p *plan[C]) first(x []C, inv bool) {
	n := p.n
	if oddLog(n) {
		for i := 0; i+1 < n; i += 2 {
			x[i], x[i+1] = x[i]+x[i+1], x[i]-x[i+1]
		}
		return
	}
	for i := 0; i+3 < n; i += 4 {
		q := x[i : i+4 : i+4]
		t0, t1, t2, t3 := q[0]+q[1], q[0]-q[1], q[2]+q[3], mulI(q[2]-q[3])
		if inv {
			t3 = -t3
		}
		q[0], q[1], q[2], q[3] = t0+t2, t1-t3, t0-t2, t1+t3
	}
}

// middle is where a convolution turns round: the forward transform's last
// stage, the product with spec (read through the bit-reversal index, 1/n
// folded in) and the inverse transform's first stage, fused into one pass
// with the arithmetic of the three run one after another.
//
//perf:hot
func (p *plan[C]) middle(x, spec []C) {
	n, br := p.n, p.br
	s := 1 / float64(n)
	switch {
	case n == 1:
		x[0] *= spec[0]
	case oddLog(n):
		for i := 0; i+1 < n; i += 2 {
			a, b := x[i], x[i+1]
			y0, y1 := scaled((a+b)*spec[br[i]], s), scaled((a-b)*spec[br[i+1]], s)
			x[i], x[i+1] = y0+y1, y0-y1
		}
	default:
		for i := 0; i+3 < n; i += 4 {
			q, bq := x[i:i+4:i+4], br[i:i+4:i+4]
			u0, u1, u2, u3 := q[0]+q[2], q[0]-q[2], q[1]+q[3], mulI(q[1]-q[3])
			y0, y1 := scaled((u0+u2)*spec[bq[0]], s), scaled((u0-u2)*spec[bq[1]], s)
			y2, y3 := scaled((u1-u3)*spec[bq[2]], s), scaled((u1+u3)*spec[bq[3]], s)
			t0, t1, t2, t3 := y0+y1, y0-y1, y2+y3, mulI(y2-y3)
			q[0], q[1], q[2], q[3] = t0+t2, t1+t3, t0-t2, t1-t3
		}
	}
}

// stages runs the radix-4 stages with twiddles: decimation in time over
// first's output, smallest stage first, leaving the transform in natural
// order; or, with dif, decimation in frequency over natural-order input,
// largest stage first, for middle to finish in bit-reversed order. live <
// n prunes the stage of a padded convolution that meets the zero half.
//
//perf:hot
func (p *plan[C]) stages(x, tw []C, inv, dif bool, live int) {
	n, f := p.n, firstStage(p.n)
	for s := f; s <= n; s <<= 2 {
		L := s
		if dif {
			L = n / s * f
		}
		q, w := L/4, tw[(L-f)/4:(L-f)/4+3*L/4] // the tables run smallest stage first
		if L == n && live < n {
			pruned(x, w, live, dif)
			continue
		}
		for b := 0; b < n; b += L {
			quad(x[b:b+q], x[b+q:b+2*q], x[b+2*q:b+3*q], x[b+3*q:b+L], w, inv, dif)
		}
	}
}

// quad runs one radix-4 stage over a block whose quarters are x0…x3.
// Decimation in time twiddles the inputs — x1 and x2 hold the
// sub-transforms of the samples ≡ 2 and 1 mod 4, so they take w^2k and w^k
// — and combines them, inv choosing the direction. Decimation in frequency
// combines and then twiddles, sending the frequencies ≡ 0, 2, 1, 3 mod 4
// out to x0…x3: bit-reversed order, one level down.
//
//perf:hot
func quad[C cplx](x0, x1, x2, x3, w []C, inv, dif bool) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for k := range x0 {
		wk := w[3*k : 3*k+3 : 3*k+3]
		a, b, c, d := x0[k], x1[k], x2[k], x3[k]
		if dif {
			u0, u1, u2, u3 := a+c, a-c, b+d, mulI(b-d)
			x0[k], x1[k], x2[k], x3[k] = u0+u2, (u0-u2)*wk[1], (u1-u3)*wk[0], (u1+u3)*wk[2]
			continue
		}
		b, c, d = b*wk[1], c*wk[0], d*wk[2]
		t0, t1, t2, t3 := a+b, a-b, c+d, mulI(c-d)
		if inv {
			t3 = -t3
		}
		x0[k], x1[k], x2[k], x3[k] = t0+t2, t1-t3, t0-t2, t1+t3
	}
}

// pruned is quad on the whole of a padded convolution's row (n = 4q, live
// ≤ 2q) where it meets the zero half: the forward transform's first stage,
// taking the samples from live on as zero whatever they hold, or the
// inverse transform's last, writing only the outputs before live. Those
// are quad's, up to the signs of zeros.
//
//perf:hot
func pruned[C cplx](x, w []C, live int, dif bool) {
	q := len(x) / 4
	x0, x1, x2, x3 := x[:q], x[q:2*q], x[2*q:3*q], x[3*q:4*q]
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for k := range x0 {
		wk := w[3*k : 3*k+3 : 3*k+3]
		a, b := x0[k], x1[k]
		if dif {
			if k >= live {
				a = 0
			}
			if k+q >= live {
				b = 0
			}
			ib := mulI(b)
			x0[k], x1[k], x2[k], x3[k] = a+b, (a-b)*wk[1], (a-ib)*wk[0], (a+ib)*wk[2]
		} else if k < live {
			b, c, d := b*wk[1], x2[k]*wk[0], x3[k]*wk[2]
			x0[k] = a + b + (c + d)
			if k+q < live {
				x1[k] = a - b + mulI(c-d)
			}
		}
	}
}

// ConvolveBatchInto circularly convolves every contiguous length-n row of
// x, in place, with the kernel whose forward frequency response is spec:
// row ← IFFT(FFT(row) ⊙ spec). len(x) must be a whole number of
// plan-length rows; no allocations are performed. Nothing is scrambled:
// the forward pass leaves the spectrum in bit-reversed order, spec is read
// through the plan's bit-reversal index, and the inverse pass starts from
// that order.
//
//perf:hot
func (p *plan[C]) ConvolveBatchInto(x, spec []C) {
	p.convolveBatch(x, spec, p.n)
}

// ConvolvePaddedInto is ConvolveBatchInto for rows zero-padded from live
// on, live ≤ n/2, as the ramp filter pads them: samples from live on are
// taken as zero whatever they hold, and only the first live outputs of a
// row are defined. The first forward stage skips the zero half and the
// last inverse stage the unused one; on the live outputs the result is ==
// ConvolveBatchInto's on the zero-padded rows.
//
//perf:hot
func (p *plan[C]) ConvolvePaddedInto(x, spec []C, live int) {
	if live < 0 || live > p.n/2 {
		p.badLive(live)
	}
	p.convolveBatch(x, spec, live)
}

//perf:hot
func (p *plan[C]) convolveBatch(x, spec []C, live int) {
	p.checkLen(spec)
	n := p.n
	if len(x)%n != 0 {
		p.badBatch(len(x))
	}
	for r := 0; r < len(x); r += n {
		row, l := x[r:r+n], live
		if n < 8 { // no stage to prune
			clear(row[l:])
			l = n
		}
		p.stages(row, p.twF, false, true, l)
		p.middle(row, spec)
		p.stages(row, p.twI, true, false, l)
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

// badBatch and badLive are the cold panic paths of the convolutions, kept
// out of the hot functions so their formatting does not allocate there.
func (p *plan[C]) badBatch(got int) {
	panic(fmt.Sprintf("fft: batch length %d is not a multiple of plan length %d", got, p.n))
}

func (p *plan[C]) badLive(live int) {
	panic(fmt.Sprintf("fft: %d live samples exceed half the plan length %d", live, p.n))
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
