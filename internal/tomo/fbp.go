package tomo

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/vol"
)

// Filter selects the apodization window applied to the ramp filter in
// filtered back projection, trading resolution against noise — the same
// menu TomoPy exposes.
type Filter int

const (
	// RamLak is the pure ramp filter: sharpest, noisiest.
	RamLak Filter = iota
	// SheppLoganFilter multiplies the ramp by a sinc window.
	SheppLoganFilter
	// Cosine multiplies the ramp by a cosine window.
	Cosine
	// Hamming multiplies the ramp by a Hamming window.
	Hamming
	// Hann multiplies the ramp by a Hann window: smoothest.
	Hann
)

func (f Filter) String() string {
	switch f {
	case RamLak:
		return "ramlak"
	case SheppLoganFilter:
		return "shepp"
	case Cosine:
		return "cosine"
	case Hamming:
		return "hamming"
	case Hann:
		return "hann"
	}
	return fmt.Sprintf("filter(%d)", int(f))
}

// ParseFilter converts a filter name (as used by the CLI and flow
// parameters) into a Filter.
func ParseFilter(name string) (Filter, error) {
	switch name {
	case "ramlak", "ram-lak":
		return RamLak, nil
	case "shepp", "shepp-logan":
		return SheppLoganFilter, nil
	case "cosine":
		return Cosine, nil
	case "hamming":
		return Hamming, nil
	case "hann":
		return Hann, nil
	}
	return 0, fmt.Errorf("tomo: unknown filter %q", name)
}

// rampFilter builds the frequency-domain filter of length m for detector
// sampling pitch tau, windowed per f.
func rampFilter(m int, tau float64, f Filter) []float64 {
	h := make([]float64, m)
	fNyq := 1 / (2 * tau)
	for i := 0; i < m; i++ {
		fi := float64(fft.FreqIndex(i, m)) / (float64(m) * tau)
		af := math.Abs(fi)
		if af > fNyq {
			af = fNyq
		}
		w := 1.0
		r := af / fNyq // 0..1
		switch f {
		case RamLak:
			w = 1
		case SheppLoganFilter:
			if r > 0 {
				x := math.Pi * r / 2
				w = math.Sin(x) / x
			}
		case Cosine:
			w = math.Cos(math.Pi * r / 2)
		case Hamming:
			w = 0.54 + 0.46*math.Cos(math.Pi*r)
		case Hann:
			w = 0.5 * (1 + math.Cos(math.Pi*r))
		}
		h[i] = af * w
	}
	return h
}

// rampSpectrum is the ramp filter of ncols-column rows as the spectrum of
// their zero-padded convolution — real, even, and as long as twice the row
// rounded up to a power of two — with that length's plan.
func rampSpectrum(ncols int, f Filter) (*fft.Plan, []complex128) {
	m := fft.NextPow2(2 * ncols)
	taps := make([]complex128, m)
	for i, v := range rampFilter(m, 2.0/float64(ncols), f) {
		taps[i] = complex(v, 0)
	}
	return fft.PlanFor(m), taps
}

// convolver is the transform plan the row-pair filters run on, at either
// width (*fft.Plan, *fft.Plan32).
type convolver[C complex64 | complex128] interface {
	ConvolvePaddedInto(x, spec []C, live int)
}

// filterPairs is the one row-pair packer of the ramp filters, FBP's at
// both widths and the streaming preview's. It convolves the nc-sample rows
// of src that order names with spec, two per len(spec)-point transform of
// batch — order[2j] in the real part of transform j, order[2j+1] (-1:
// none) in the imaginary part — and writes each back into the same row of
// dst. spec is real and even, so the two
// rows never mix in exact arithmetic; in floating point a row's error is
// relative to the larger of its pair. Rows are zero-padded, through the
// padded convolution. Allocation-free.
//
//perf:hot
func filterPairs[C complex64 | complex128, F float32 | float64](conv convolver[C], spec, batch []C, dst []F, src []float64, nc int, order []int) {
	m := len(spec)
	batch = batch[:len(order)/2*m]
	for j := 0; j+1 < len(order); j += 2 {
		t := batch[j/2*m : j/2*m+m]
		a := src[order[j]*nc : order[j]*nc+nc]
		if r := order[j+1]; r >= 0 {
			b := src[r*nc : r*nc+nc]
			for i := range a {
				t[i] = C(complex(a[i], b[i]))
			}
		} else {
			for i := range a {
				t[i] = C(complex(a[i], 0))
			}
		}
	}
	conv.ConvolvePaddedInto(batch, spec, nc)
	// real and imag are not defined on type parameters; through complex128
	// is a no-op at that width and exact at complex64.
	for j, r := range order {
		if r < 0 {
			continue
		}
		t, d := batch[j/2*m:j/2*m+nc], dst[r*nc:r*nc+nc]
		if j%2 == 0 {
			for i, v := range t {
				d[i] = F(real(complex128(v)))
			}
		} else {
			for i, v := range t {
				d[i] = F(imag(complex128(v)))
			}
		}
	}
}

// pairOrder is filterPairs' order for rows 0…n-1 in pairs, the last alone
// when n is odd.
func pairOrder(n int) []int {
	order := make([]int, n, n+1)
	for i := range order {
		order[i] = i
	}
	if n%2 == 1 {
		order = append(order, -1)
	}
	return order
}

// FilterSinogram returns a copy of s with every projection row convolved
// with the windowed ramp filter (zero-padded to avoid circular wrap).
// The filter taps come from a cached reconstruction plan, so repeated
// calls on one geometry never rebuild the ramp.
//
// q = IFFT(FFT(p)·|f|): the τ from approximating the continuous transform
// by the DFT cancels against the Δf of the inverse frequency integral, so
// no pitch factor remains.
func FilterSinogram(s *Sinogram, f Filter) *Sinogram {
	p := mustPlan(s.Theta, s.NCols, ReconOptions{Algorithm: AlgFBP, Filter: f})
	out := NewSinogram(s.Theta, s.NCols)
	sc := p.GetScratch()
	p.filterInto(out, s, sc.fbatch)
	p.PutScratch(sc)
	return out
}

// FBPOptions configures a filtered back projection.
type FBPOptions struct {
	Filter Filter
	// Size is the output image side length; 0 means use NCols.
	Size int
}

// FBP reconstructs a slice from its sinogram by filtered back projection —
// the fast algorithm the streaming branch runs for sub-10-second previews.
// It is a thin wrapper over a cached ReconPlan; hot loops should hold the
// plan and a Scratch and call ReconstructInto directly.
func FBP(s *Sinogram, opts FBPOptions) *vol.Image {
	p := mustPlan(s.Theta, s.NCols, ReconOptions{Algorithm: AlgFBP, Filter: opts.Filter, Size: opts.Size})
	return p.reconstruct(s)
}

// mustPlan backs the legacy one-shot entry points, whose signatures have
// no error path; PlanRecon only fails on degenerate geometry (no angles,
// no columns) or an unknown algorithm, neither reachable from them with
// inputs the old code accepted.
func mustPlan(theta []float64, ncols int, opts ReconOptions) *ReconPlan {
	p, err := PlanRecon(theta, ncols, opts)
	if err != nil {
		panic(err)
	}
	return p
}
