package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestForwardKnownImpulse(t *testing.T) {
	// DFT of an impulse is flat.
	x := make([]complex128, 8)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestForwardKnownCosine(t *testing.T) {
	// cos(2πk/N) concentrates energy in bins 1 and N-1.
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(i)/float64(n)), 0)
	}
	Forward(x)
	for i, v := range x {
		want := 0.0
		if i == 1 || i == n-1 {
			want = float64(n) / 2
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d magnitude = %v, want %v", i, cmplx.Abs(v), want)
		}
	}
}

// randComplex returns n seeded normal samples at either width.
func randComplex[C cplx](n int, seed int64) []C {
	rng := rand.New(rand.NewSource(seed))
	x := make([]C, n)
	for i := range x {
		x[i] = C(complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	return x
}

func cabs[C cplx](c C) float64 { return cmplx.Abs(complex128(c)) }

func testRoundTrip[C cplx](t *testing.T, planFor func(int) *plan[C], tol float64) {
	for _, n := range []int{1, 2, 4, 8, 64, 256, 512} {
		x := randComplex[C](n, int64(n))
		orig := append([]C(nil), x...)
		p := planFor(n)
		p.Forward(x)
		p.Inverse(x)
		for i := range x {
			if d := cabs(x[i] - orig[i]); d > tol {
				t.Fatalf("n=%d round trip: |Δ[%d]| = %g > %g", n, i, d, tol)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	testRoundTrip(t, PlanFor, 1e-9)
	// The package-level wrappers reach the same plans.
	x := randComplex[complex128](64, 1)
	orig := append([]complex128(nil), x...)
	Forward(x)
	Inverse(x)
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("Forward/Inverse roundtrip mismatch at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestPlan32RoundTrip(t *testing.T) { testRoundTrip(t, PlanFor32, 1e-5) }

// testSizeOneTwo pins the degenerate transform lengths the plan builder
// special-cases: length 1 is the identity, length 2 is the butterfly
// [a+b, a−b] (and halved back by Inverse).
func testSizeOneTwo[C cplx](t *testing.T, planFor func(int) *plan[C]) {
	p1 := planFor(1)
	x1 := []C{complex(3, -2)}
	p1.Forward(x1)
	if x1[0] != complex(3, -2) {
		t.Errorf("size-1 forward changed the sample: %v", x1[0])
	}
	p1.Inverse(x1)
	if x1[0] != complex(3, -2) {
		t.Errorf("size-1 inverse changed the sample: %v", x1[0])
	}

	p2 := planFor(2)
	x2 := []C{complex(1, 0), complex(2, 0)}
	p2.Forward(x2)
	if x2[0] != complex(3, 0) || x2[1] != complex(-1, 0) {
		t.Errorf("size-2 forward = %v, want [(3+0i) (-1+0i)]", x2)
	}
	p2.Inverse(x2)
	if x2[0] != complex(1, 0) || x2[1] != complex(2, 0) {
		t.Errorf("size-2 round trip = %v, want [(1+0i) (2+0i)]", x2)
	}
}

func TestPlanSizeOneTwo(t *testing.T)   { testSizeOneTwo(t, PlanFor) }
func TestPlan32SizeOneTwo(t *testing.T) { testSizeOneTwo(t, PlanFor32) }

func TestParsevalProperty(t *testing.T) {
	// Energy in time domain equals energy in frequency domain / N.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 << (1 + rng.Intn(8))
		x := make([]complex128, n)
		var et float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		Forward(x)
		var ef float64
		for _, v := range x {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		if math.Abs(et-ef/float64(n)) > 1e-6*et {
			t.Fatalf("Parseval violated: %v vs %v", et, ef/float64(n))
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 128
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := 0; i < n; i++ {
		a[i] = complex(rng.NormFloat64(), 0)
		b[i] = complex(rng.NormFloat64(), 0)
		sum[i] = 2*a[i] + 3*b[i]
	}
	Forward(a)
	Forward(b)
	Forward(sum)
	for i := 0; i < n; i++ {
		want := 2*a[i] + 3*b[i]
		if cmplx.Abs(sum[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func testPanicsOnNonPow2[C cplx](t *testing.T, planFor func(int) *plan[C]) {
	for _, n := range []int{0, -1, 3, 12, 100} {
		mustPanic(t, fmt.Sprintf("plan for length %d", n), func() { planFor(n) })
	}
}

func TestForwardPanicsOnNonPow2(t *testing.T) {
	testPanicsOnNonPow2(t, PlanFor)
	mustPanic(t, "Forward on length 3", func() { Forward(make([]complex128, 3)) })
}

func TestPlanFor32PanicsOnNonPow2(t *testing.T) { testPanicsOnNonPow2(t, PlanFor32) }

// TestForwardRealMatchesComplex holds the pair split to two separate
// complex transforms of real rows, at DC, at Nyquist and everywhere between,
// including the zero-partner case of an odd last row, and holds it to zero
// allocations.
func TestForwardRealMatchesComplex(t *testing.T) {
	for _, n := range []int{2, 8, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for _, partner := range []string{"random", "zero"} {
			if partner == "zero" {
				clear(b)
			}
			wantA, wantB, z := make([]complex128, n), make([]complex128, n), make([]complex128, n)
			for i := range a {
				wantA[i], wantB[i], z[i] = complex(a[i], 0), complex(b[i], 0), complex(a[i], b[i])
			}
			p := PlanFor(n)
			p.Forward(wantA)
			p.Forward(wantB)
			p.Forward(z)
			gotB := make([]complex128, n)
			SplitPair(z, gotB)
			for k := range z {
				if d := max(cmplx.Abs(z[k]-wantA[k]), cmplx.Abs(gotB[k]-wantB[k])); d > 1e-12 {
					t.Fatalf("n=%d %s partner, bin %d: |Δ| = %g > 1e-12", n, partner, k, d)
				}
			}
			for _, k := range []int{0, n / 2} {
				if imag(z[k]) != 0 || imag(gotB[k]) != 0 {
					t.Errorf("n=%d %s partner: bin %d is not real: %v, %v", n, partner, k, z[k], gotB[k])
				}
			}
			Inverse(z)
			for i := range a {
				if math.Abs(real(z[i])-a[i]) > 1e-12 {
					t.Fatalf("n=%d %s partner: round trip sample %d = %v, want %v", n, partner, i, z[i], a[i])
				}
			}
			if allocs := testing.AllocsPerRun(5, func() { SplitPair(z, gotB) }); allocs != 0 {
				t.Errorf("n=%d: SplitPair %v allocs/op, want 0", n, allocs)
			}
		}
	}
}

// impulseSpec is the frequency response of a unit impulse at index at:
// convolving with it circularly shifts the signal by at samples.
func impulseSpec[C cplx](p *plan[C], at int) []C {
	spec := make([]C, p.n)
	spec[at] = 1
	p.Forward(spec)
	return spec
}

// testConvolveImpulse checks that convolving with an impulse at index
// shift circularly shifts the signal by shift (0: the identity).
func testConvolveImpulse[C cplx](t *testing.T, planFor func(int) *plan[C], shift int, tol float64) {
	const n = 16
	p := planFor(n)
	x := randComplex[C](n, 3)
	orig := append([]C(nil), x...)
	p.ConvolveBatchInto(x, impulseSpec(p, shift))
	for i := range x {
		if d := cabs(x[i] - orig[(i-shift+n)%n]); d > tol {
			t.Fatalf("impulse at %d moved sample %d off its shifted source by %g", shift, i, d)
		}
	}
}

func TestConvolveIdentity(t *testing.T)       { testConvolveImpulse(t, PlanFor, 0, 1e-10) }
func TestPlan32ConvolveIdentity(t *testing.T) { testConvolveImpulse(t, PlanFor32, 0, 1e-5) }

func TestConvolveShift(t *testing.T) {
	testConvolveImpulse(t, PlanFor, 2, 1e-10)
	testConvolveImpulse(t, PlanFor32, 2, 1e-5)
}

func testConvolvePanicsOnMismatch[C cplx](t *testing.T, planFor func(int) *plan[C]) {
	mustPanic(t, "spectrum longer than the plan", func() {
		planFor(4).ConvolveBatchInto(make([]C, 4), make([]C, 8))
	})
}

func TestConvolvePanicsOnMismatch(t *testing.T) {
	testConvolvePanicsOnMismatch(t, PlanFor)
	testConvolvePanicsOnMismatch(t, PlanFor32)
}

// testConvolveBatchMatchesPerRow proves the batch entry point's claim: a
// batch convolution is bit-identical to convolving its rows one by one.
func testConvolveBatchMatchesPerRow[C cplx](t *testing.T, planFor func(int) *plan[C]) {
	const n, rows = 64, 7
	spec := randComplex[C](n, 11)
	batch := randComplex[C](rows*n, 13)
	serial := append([]C(nil), batch...)
	p := planFor(n)
	p.ConvolveBatchInto(batch, spec)
	for r := 0; r < rows; r++ {
		p.ConvolveBatchInto(serial[r*n:(r+1)*n], spec)
	}
	for i := range batch {
		if batch[i] != serial[i] {
			t.Fatalf("batch[%d] = %v, per-row = %v (must be bit-identical)", i, batch[i], serial[i])
		}
	}
}

func TestConvolveBatchMatchesPerRow(t *testing.T) {
	testConvolveBatchMatchesPerRow(t, PlanFor)
	testConvolveBatchMatchesPerRow(t, PlanFor32)
}

func testConvolveBatchPanicsOnRaggedLength[C cplx](t *testing.T, planFor func(int) *plan[C]) {
	mustPanic(t, "batch with non-multiple length", func() {
		planFor(8).ConvolveBatchInto(make([]C, 12), make([]C, 8))
	})
}

func TestConvolveBatchPanicsOnRaggedLength(t *testing.T) {
	testConvolveBatchPanicsOnRaggedLength(t, PlanFor)
	testConvolveBatchPanicsOnRaggedLength(t, PlanFor32)
}

// naiveDFT is the O(n²) DFT of x in float64, each factor exp(∓2πi·jk/n)
// evaluated at its own angle: the reference the transforms are held to.
func naiveDFT[C cplx](x []C, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1
	}
	w := make([]complex128, n)
	for j := range w {
		s, c := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(c, sign*s)
	}
	out := make([]complex128, n)
	for k := range out {
		var sum complex128
		for j, v := range x {
			sum += complex128(v) * w[j*k%n]
		}
		out[k] = sum
	}
	return out
}

// naiveConvolve is IDFT(DFT(x) ⊙ spec)/n by naiveDFT.
func naiveConvolve[C cplx](x, spec []C) []complex128 {
	X := naiveDFT(x, false)
	for k := range X {
		X[k] *= complex128(spec[k])
	}
	y := naiveDFT(X, true)
	for k := range y {
		y[k] /= complex(float64(len(x)), 0)
	}
	return y
}

// relErr is ‖got − want‖₂ / ‖want‖₂ over got's samples.
func relErr[C cplx](got []C, want []complex128) float64 {
	var num, den float64
	for k, g := range got {
		d := complex128(g) - want[k]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(want[k])*real(want[k]) + imag(want[k])*imag(want[k])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// naiveTol is the relative error allowed a length-n transform at unit
// roundoff eps: a few roundings per butterfly stage. A misplaced twiddle
// or a wrong output slot is an error of order one.
func naiveTol(n int, eps float64) float64 { return 8 * eps * float64(bits.Len(uint(n))) }

// testMatchesNaive holds Forward, Inverse and both convolution entry
// points to the naive DFT at every power of two up to 4096 — odd and even
// log₂ n, so the leftover size-2 stage and the size-4 stage are both
// covered — and the padded convolution to the full one with == on its live
// outputs.
func testMatchesNaive[C cplx](t *testing.T, planFor func(int) *plan[C], eps float64) {
	for n := 1; n <= 4096; n *= 2 {
		p, tol := planFor(n), naiveTol(n, eps)
		x := randComplex[C](n, int64(n))
		for _, inverse := range []bool{false, true} {
			got := append([]C(nil), x...)
			want := naiveDFT(x, inverse)
			if inverse {
				p.Inverse(got)
				for k := range want {
					want[k] /= complex(float64(n), 0)
				}
			} else {
				p.Forward(got)
			}
			if e := relErr(got, want); e > tol {
				t.Errorf("n=%d inverse=%v: relative error %g > %g", n, inverse, e, tol)
			}
		}

		spec := randComplex[C](n, int64(n)+1)
		full := append([]C(nil), x...)
		p.ConvolveBatchInto(full, spec)
		if e := relErr(full, naiveConvolve(x, spec)); e > tol {
			t.Errorf("n=%d ConvolveBatchInto: relative error %g > %g", n, e, tol)
		}
		for _, live := range []int{0, 1, n / 8, n/4 + 1, n / 2} {
			if live > n/2 {
				continue
			}
			padded := randComplex[C](n, 99) // past live: ignored, not cleared
			copy(padded, x[:live])
			zeroed := make([]C, n)
			copy(zeroed, x[:live])
			want := naiveConvolve(zeroed, spec)
			p.ConvolveBatchInto(zeroed, spec)
			p.ConvolvePaddedInto(padded, spec, live)
			if e := relErr(padded[:live], want); e > tol {
				t.Errorf("n=%d live=%d ConvolvePaddedInto: relative error %g > %g", n, live, e, tol)
			}
			for k := 0; k < live; k++ {
				if padded[k] != zeroed[k] {
					t.Fatalf("n=%d live=%d: padded output %d = %v, full %v (must be ==)", n, live, k, padded[k], zeroed[k])
				}
			}
		}
	}
}

func TestTransformsMatchNaiveDFT(t *testing.T)       { testMatchesNaive(t, PlanFor, 0x1p-52) }
func TestPlan32TransformsMatchNaiveDFT(t *testing.T) { testMatchesNaive(t, PlanFor32, 0x1p-23) }

func testConvolveZeroAlloc[C cplx](t *testing.T, planFor func(int) *plan[C]) {
	const n, rows = 256, 3
	p := planFor(n)
	x, spec := randComplex[C](rows*n, 1), randComplex[C](n, 2)
	if a := testing.AllocsPerRun(10, func() { p.ConvolveBatchInto(x, spec) }); a != 0 {
		t.Errorf("ConvolveBatchInto: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { p.ConvolvePaddedInto(x, spec, n/2) }); a != 0 {
		t.Errorf("ConvolvePaddedInto: %v allocs/op, want 0", a)
	}
}

func TestConvolveZeroAlloc(t *testing.T) {
	testConvolveZeroAlloc(t, PlanFor)
	testConvolveZeroAlloc(t, PlanFor32)
}

func TestConvolvePaddedPanicsOnLive(t *testing.T) {
	mustPanic(t, "live past half the plan", func() {
		PlanFor(8).ConvolvePaddedInto(make([]complex128, 8), make([]complex128, 8), 5)
	})
	mustPanic(t, "negative live", func() {
		PlanFor(8).ConvolvePaddedInto(make([]complex128, 8), make([]complex128, 8), -1)
	})
}

// FuzzConvolveBatch is the differential target for the convolution core:
// a power-of-two n ≤ 1024, a random spectrum, input and live count, both
// entry points against the naive DFT convolution, and the padded one ==
// the full one on its live outputs.
func FuzzConvolveBatch(f *testing.F) {
	f.Add(uint8(8), int64(1), uint16(100))
	f.Add(uint8(1), int64(2), uint16(0))
	f.Add(uint8(5), int64(3), uint16(16))
	f.Fuzz(func(t *testing.T, logN uint8, seed int64, liveSeed uint16) {
		n := 1 << (logN % 11)
		p := PlanFor(n)
		x, spec := randComplex[complex128](n, seed), randComplex[complex128](n, seed+1)
		live := int(liveSeed) % (n/2 + 1)
		clear(x[live:])
		want := naiveConvolve(x, spec)
		full := append([]complex128(nil), x...)
		p.ConvolveBatchInto(full, spec)
		if e := relErr(full, want); e > naiveTol(n, 0x1p-52) {
			t.Fatalf("n=%d ConvolveBatchInto: relative error %g", n, e)
		}
		padded := append([]complex128(nil), x...)
		p.ConvolvePaddedInto(padded, spec, live)
		for k := 0; k < live; k++ {
			if padded[k] != full[k] {
				t.Fatalf("n=%d live=%d: padded output %d = %v, full %v", n, live, k, padded[k], full[k])
			}
		}
	})
}

// TestPlan32CacheIndependentOfFloat64 guards the deliberate decision to
// keep the two precision tiers in separate caches keyed on the same
// lengths: requesting one tier returns a stable cached instance and never
// aliases or perturbs the other tier's plan for the same n.
func TestPlan32CacheIndependentOfFloat64(t *testing.T) {
	const n = 32
	p64 := PlanFor(n)
	p32a := PlanFor32(n)
	p32b := PlanFor32(n)
	if p32a != p32b {
		t.Error("PlanFor32 did not return the cached instance on the second call")
	}
	if PlanFor(n) != p64 {
		t.Error("building the float32 plan evicted or replaced the float64 plan")
	}
	if p64.n != n || p32a.n != n {
		t.Errorf("tier lengths diverge from %d: %d vs %d", n, p64.n, p32a.n)
	}
}

// TestPlan32MatchesFloat64 cross-checks the single-precision transform
// against the double-precision one on identical data: agreement to
// float32 rounding, for both directions.
func TestPlan32MatchesFloat64(t *testing.T) {
	const n = 128
	x64 := randComplex[complex128](n, 7)
	x32 := make([]complex64, n)
	for i := range x64 {
		x32[i] = complex64(x64[i])
	}
	PlanFor(n).Forward(x64)
	PlanFor32(n).Forward(x32)
	for i := range x64 {
		if d := cmplx.Abs(x64[i] - complex128(x32[i])); d > 1e-3 { // spectra have magnitude ~√n ≈ 11; 1e-3 ≈ 100× f32 eps headroom
			t.Fatalf("forward bin %d: |Δ| = %g > 1e-3", i, d)
		}
	}
}

// TestPlan32TwiddlesAreRoundedFloat64 pins what the one generic plan
// source promises the float32 tier: every Plan32 twiddle is the float64
// table entry rounded once, not a value computed in single precision.
func TestPlan32TwiddlesAreRoundedFloat64(t *testing.T) {
	for _, n := range []int{2, 8, 1024} {
		p64, p32 := PlanFor(n), PlanFor32(n)
		if len(p32.twF) != len(p64.twF) || len(p32.twI) != len(p64.twI) {
			t.Fatalf("n=%d: table lengths differ", n)
		}
		for k := range p64.twF {
			if p32.twF[k] != complex64(p64.twF[k]) || p32.twI[k] != complex64(p64.twI[k]) {
				t.Fatalf("n=%d: twiddle %d is not complex64 of the float64 entry", n, k)
			}
		}
	}
}

func TestFreqIndex(t *testing.T) {
	n := 8
	wants := []int{0, 1, 2, 3, 4, -3, -2, -1}
	for i, want := range wants {
		if got := FreqIndex(i, n); got != want {
			t.Errorf("FreqIndex(%d,%d) = %d, want %d", i, n, got, want)
		}
	}
}

func TestForward2DRoundTrip(t *testing.T) {
	n := 16
	img := make([]complex128, n*n)
	rng := rand.New(rand.NewSource(5))
	orig := make([]complex128, n*n)
	for i := range img {
		img[i] = complex(rng.NormFloat64(), 0)
		orig[i] = img[i]
	}
	p, col := PlanFor(n), make([]complex128, n)
	p.Forward2D(img, col)
	p.Inverse2D(img, col)
	for i := range img {
		if cmplx.Abs(img[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D roundtrip mismatch at %d", i)
		}
	}
}

func TestForward2DDC(t *testing.T) {
	// The DC bin of a constant image is n²·c.
	n := 8
	img := make([]complex128, n*n)
	for i := range img {
		img[i] = 3
	}
	PlanFor(n).Forward2D(img, make([]complex128, n))
	if cmplx.Abs(img[0]-complex(3*float64(n*n), 0)) > 1e-9 {
		t.Fatalf("DC bin = %v", img[0])
	}
	for i := 1; i < n*n; i++ {
		if cmplx.Abs(img[i]) > 1e-9 {
			t.Fatalf("non-DC bin %d = %v", i, img[i])
		}
	}
}

// hermitianExtension is the full n×n spectrum whose rows 0…n/2 are half
// and whose rows n/2+1…n-1 mirror rows n/2-1…1: row n-ky, column n-kx is
// the conjugate of row ky, column kx.
func hermitianExtension[C cplx](half []C, n int) []C {
	full := make([]C, n*n)
	copy(full, half)
	for ky := n/2 + 1; ky < n; ky++ {
		for kx := 0; kx < n; kx++ {
			full[ky*n+kx] = C(cmplx.Conj(complex128(half[(n-ky)*n+(n-kx)%n])))
		}
	}
	return full
}

// testInverse2DBand holds the Hermitian band inverse to its contract: each
// band sample is within tol of Re(Inverse2D) of the Hermitian extension at
// the same width, for bands inside the axis, at the exact fit and past it
// (the all-columns fallback), with rows 0 and n/2 not Hermitian on their
// own — and it allocates nothing.
func testInverse2DBand[C cplx, F float32 | float64](t *testing.T, planFor func(int) *plan[C], tol float64) {
	for _, n := range []int{2, 4, 16} {
		p := planFor(n)
		src := randComplex[C]((n/2+1)*n, int64(n))
		want := hermitianExtension(src, n)
		p.Inverse2D(want, make([]C, n))
		col := make([]C, 2*n)
		for _, band := range []int{0, 1, 3, 6, n/2 - 1, n / 2, n} {
			bw := BandSide(n, band)
			out := make([]F, bw*bw)
			half := append([]C(nil), src...)
			InverseHermitian2DBand(p, half, col, out, band)
			// The band's lines in wrapped order: 0…band, then n-band…n-1.
			var lines []int
			for i := 0; i < n; i++ {
				if bw == n || i <= band || i >= n-band {
					if BandIndex(i, n, band) != len(lines) {
						t.Fatalf("n=%d band=%d: BandIndex(%d) = %d, want %d", n, band, i, BandIndex(i, n, band), len(lines))
					}
					lines = append(lines, i)
				}
			}
			if len(lines) != bw {
				t.Fatalf("n=%d band=%d: %d band lines, BandSide says %d", n, band, len(lines), bw)
			}
			for yc, y := range lines {
				for xc, x := range lines {
					got, re := float64(out[yc*bw+xc]), real(complex128(want[y*n+x]))
					if d := math.Abs(got - re); d > tol {
						t.Fatalf("n=%d band=%d: (%d,%d) = %v, Re(Inverse2D) gives %v (|Δ| = %g > %g)",
							n, band, x, y, got, re, d, tol)
					}
				}
			}
			if allocs := testing.AllocsPerRun(5, func() { InverseHermitian2DBand(p, half, col, out, band) }); allocs != 0 {
				t.Errorf("n=%d band=%d: %v allocs/op, want 0", n, band, allocs)
			}
		}
	}
}

func TestInverse2DBandMatchesInverse2D(t *testing.T) {
	testInverse2DBand[complex128, float64](t, PlanFor, 1e-12)
}

// The band values are O(1/n) ≈ 0.06 at n = 16, so 1e-6 is ≈ 100 float32
// roundings of headroom for the different summation order.
func TestPlan32Inverse2DBandMatchesInverse2D(t *testing.T) {
	testInverse2DBand[complex64, float32](t, PlanFor32, 1e-6)
}

func BenchmarkForward1K(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkForward2D256(b *testing.B) {
	n := 256
	img := make([]complex128, n*n)
	for i := range img {
		img[i] = complex(float64(i%13), 0)
	}
	p, col := PlanFor(n), make([]complex128, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward2D(img, col)
	}
}

// BenchmarkInverseHermitian2DBand256 is gridrec's inverse at the
// file_gridrec workload's size: the 129 stored rows of a 256² grid, of
// which the 129 lines nearest the wrapped origin are read on each axis.
func BenchmarkInverseHermitian2DBand256(b *testing.B) {
	const n, band = 256, 64
	p := PlanFor(n)
	src := randComplex[complex128]((n/2+1)*n, 1)
	half := make([]complex128, len(src))
	col := make([]complex128, 2*n)
	out := make([]float64, BandSide(n, band)*BandSide(n, band))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(half, src) // each inverse divides by n: reusing half would sink into denormals
		InverseHermitian2DBand(p, half, col, out, band)
	}
}

// BenchmarkConvolvePadded256 is the streaming preview's filter call at the
// stream workload's geometry: 16 row pairs of 128 detector columns, padded
// to 256 points.
func BenchmarkConvolvePadded256(b *testing.B) {
	const n, rows, live = 256, 16, 128
	p := PlanFor(n)
	x, spec := randComplex[complex128](rows*n, 1), impulseSpec(p, 0) // the identity: the live samples neither grow nor decay
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ConvolvePaddedInto(x, spec, live)
	}
}

// BenchmarkConvolveBatch256 is the same batch through the full entry point.
func BenchmarkConvolveBatch256(b *testing.B) {
	const n, rows = 256, 16
	p := PlanFor(n)
	x, spec := randComplex[complex128](rows*n, 1), impulseSpec(p, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ConvolveBatchInto(x, spec)
	}
}
