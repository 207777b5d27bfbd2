package tomo

// Equivalence suite for the fused preprocessing kernel. The ref* functions
// are the staged chain preprocessInto replaced — one full pass and one
// fresh sinogram per step, median by copy-and-sort — kept verbatim as the
// reference. The contract is ==, sample for sample, on every input.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fft"
	"repro/internal/phantom"
)

func refMinusLogSinogram(s *Sinogram) *Sinogram {
	out := s.Clone()
	for i, v := range out.Data {
		if v < 1e-6 {
			v = 1e-6
		}
		out.Data[i] = -math.Log(v)
	}
	return out
}

func refRemoveRings(s *Sinogram, window int) *Sinogram {
	if window < 1 {
		window = 9
	}
	colMean := make([]float64, s.NCols)
	for a := 0; a < s.NAngles; a++ {
		row := s.Row(a)
		for c, v := range row {
			colMean[c] += v
		}
	}
	for c := range colMean {
		colMean[c] /= float64(s.NAngles)
	}
	smooth := refMovingAverage(colMean, window)
	out := s.Clone()
	for a := 0; a < s.NAngles; a++ {
		row := out.Row(a)
		for c := range row {
			row[c] -= colMean[c] - smooth[c]
		}
	}
	return out
}

func refMovingAverage(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	half := window / 2
	for i := range xs {
		lo := i - half
		hi := i + half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

func refRemoveOutliers(s *Sinogram, threshold float64) *Sinogram {
	out := s.Clone()
	const half = 2
	win := make([]float64, 0, 2*half+1)
	for a := 0; a < s.NAngles; a++ {
		src := s.Row(a)
		dst := out.Row(a)
		for c := range src {
			win = win[:0]
			for j := c - half; j <= c+half; j++ {
				if j >= 0 && j < len(src) && j != c {
					win = append(win, src[j])
				}
			}
			med := refMedian(win)
			if src[c]-med > threshold {
				dst[c] = med
			}
		}
	}
	return out
}

func refMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

func refPaganinFilter(s *Sinogram, alpha float64) *Sinogram {
	if alpha <= 0 {
		return s.Clone()
	}
	out := s.Clone()
	m := fft.NextPow2(s.NCols)
	buf := make([]complex128, m)
	for a := 0; a < s.NAngles; a++ {
		row := out.Row(a)
		for i := range buf {
			buf[i] = 0
		}
		for i := 0; i < m; i++ {
			j := i
			if j >= len(row) {
				j = 2*len(row) - 2 - j
				if j < 0 {
					j = 0
				}
			}
			buf[i] = complex(row[j], 0)
		}
		fft.Forward(buf)
		for i := range buf {
			k := float64(fft.FreqIndex(i, m)) / float64(m)
			buf[i] /= complex(1+alpha*k*k*float64(s.NCols)*float64(s.NCols), 0)
		}
		fft.Inverse(buf)
		for i := range row {
			row[i] = real(buf[i])
		}
	}
	return out
}

func refPreprocess(s *Sinogram, opts PreprocessOptions) *Sinogram {
	cur := s
	if opts.OutlierThreshold > 0 {
		cur = refRemoveOutliers(cur, opts.OutlierThreshold)
	}
	cur = refMinusLogSinogram(cur)
	if opts.RingWindow > 0 {
		cur = refRemoveRings(cur, opts.RingWindow)
	}
	if opts.PaganinAlpha > 0 {
		cur = refPaganinFilter(cur, opts.PaganinAlpha)
	}
	return cur
}

// firstDifference returns the first index at which got and want are not ==
// (two NaNs count as equal: the same operations produced both), or -1.
func firstDifference(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// preprocessSubsets is every on/off combination of the three steps.
func preprocessSubsets() []PreprocessOptions {
	var out []PreprocessOptions
	for bits := 0; bits < 8; bits++ {
		var o PreprocessOptions
		if bits&1 != 0 {
			o.OutlierThreshold = 0.2
		}
		if bits&2 != 0 {
			o.RingWindow = 9
		}
		if bits&4 != 0 {
			o.PaganinAlpha = 0.05
		}
		out = append(out, o)
	}
	return out
}

// transmissionSinogram is noisy transmission data in (0, 1] with a gain
// stripe per column, so every step has something to do.
func transmissionSinogram(rng *rand.Rand, nangles, ncols int) *Sinogram {
	s := NewSinogram(UniformAngles(nangles), ncols)
	gain := make([]float64, ncols)
	for c := range gain {
		gain[c] = 1 + 0.05*rng.NormFloat64()
	}
	for a := 0; a < nangles; a++ {
		for c, g := range gain {
			s.Row(a)[c] = g * (0.2 + 0.6*rng.Float64())
		}
	}
	return s
}

func TestPreprocessIntoMatchesStagedChain(t *testing.T) {
	poisons := []struct {
		name string
		do   func(s *Sinogram)
	}{
		{"clean", func(*Sinogram) {}},
		{"edge zingers", func(s *Sinogram) {
			// Zingers in the first and last two columns, where the
			// neighbour window is clipped.
			for a := 0; a < s.NAngles; a++ {
				row := s.Row(a)
				i := a % 2 % len(row)
				row[i] += 5
				row[len(row)-1-i] += 5
			}
		}},
		{"nan and inf", func(s *Sinogram) {
			vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -3}
			for i, v := range vals {
				s.Data[(i*7+3)%len(s.Data)] = v
			}
		}},
	}
	rng := rand.New(rand.NewSource(11))
	sc := new(Scratch) // held across every case: resizing is part of the contract
	for _, ncols := range []int{1, 2, 4, 5, 16, 17} {
		for _, poison := range poisons {
			name := poison.name
			s := transmissionSinogram(rng, 7, ncols)
			poison.do(s)
			for _, opts := range preprocessSubsets() {
				label := fmt.Sprintf("%d cols, %s, %+v", ncols, name, opts)
				want := refPreprocess(s, opts)
				got := NewSinogram(s.Theta, s.NCols)
				preprocessInto(got, s, opts, sc)
				if i := firstDifference(got.Data, want.Data); i >= 0 {
					t.Errorf("preprocessInto (%s): sample %d = %v, staged chain gives %v", label, i, got.Data[i], want.Data[i])
				}
				if i := firstDifference(Preprocess(s, opts).Data, want.Data); i >= 0 {
					t.Errorf("Preprocess (%s): sample %d differs from the staged chain", label, i)
				}
				if i := firstDifference(sc.preprocessed(s, opts).Data, want.Data); i >= 0 {
					t.Errorf("Scratch.preprocessed (%s): sample %d differs from the staged chain", label, i)
				}
			}
			// The exported steps, each against the body it used to have.
			steps := []struct {
				name      string
				got, want *Sinogram
			}{
				{"RemoveOutliers", RemoveOutliers(s, 0.2), refRemoveOutliers(s, 0.2)},
				{"MinusLogSinogram", MinusLogSinogram(s), refMinusLogSinogram(s)},
				{"RemoveRings", RemoveRings(s, 9), refRemoveRings(s, 9)},
				{"RemoveRings default window", RemoveRings(s, 0), refRemoveRings(s, 0)},
				{"PaganinFilter", PaganinFilter(s, 0.05), refPaganinFilter(s, 0.05)},
				{"PaganinFilter off", PaganinFilter(s, 0), refPaganinFilter(s, 0)},
			}
			for _, st := range steps {
				if i := firstDifference(st.got.Data, st.want.Data); i >= 0 {
					t.Errorf("%s (%d cols, %s): sample %d = %v, want %v", st.name, ncols, name, i, st.got.Data[i], st.want.Data[i])
				}
			}
		}
	}
}

func TestMedianMatchesCopyAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 1}
	for trial := 0; trial < 20000; trial++ {
		n := trial % 5
		var win [4]float64
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				win[i] = specials[rng.Intn(len(specials))]
			} else {
				win[i] = rng.NormFloat64()
			}
		}
		in := win
		want := refMedian(in[:n])
		got := median(&win, n)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("median(%v) = %v, copy-and-sort gives %v", in[:n], got, want)
		}
	}
}

// TestPreprocessIntoZeroAlloc is the allocation floor of the per-slice
// preprocessing path: with a held scratch, no option subset allocates, and
// neither does the Paganin row filter on its own.
func TestPreprocessIntoZeroAlloc(t *testing.T) {
	s := transmissionSinogram(rand.New(rand.NewSource(3)), 16, 24)
	dst := NewSinogram(s.Theta, s.NCols)
	sc := new(Scratch)
	for _, opts := range preprocessSubsets() {
		// AllocsPerRun's untimed warm-up run sizes the scratch.
		allocs := testing.AllocsPerRun(10, func() { preprocessInto(dst, s, opts, sc) })
		if allocs != 0 {
			t.Errorf("preprocessInto %+v: %v allocs/op, want 0", opts, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { paganinRow(dst.Row(0), 0.2, sc.pplan, sc.pbuf) }); allocs != 0 {
		t.Errorf("paganinRow: %v allocs/op, want 0", allocs)
	}
}

// TestReconstructVolumeWorkerCountInvariant: with preprocessing and AutoCOR
// on — per-worker scratches, the middle row preprocessed ahead of the
// rest — the volume is == voxel for voxel whatever the worker count, and
// == the slice-at-a-time path.
func TestReconstructVolumeWorkerCountInvariant(t *testing.T) {
	acq := Acquire(phantom.SheppLogan3D(32, 5), UniformAngles(24), 32,
		AcquireOptions{I0: 2e4, GainVariation: 0.03, DarkLevel: 40, ZingerProb: 5e-3, ZingerScale: 5, CORShift: 1.5, Seed: 9})
	ps := Normalize(acq.Raw, acq.Flat, acq.Dark)
	opts := ReconOptions{Algorithm: AlgGridrec, AutoCOR: true,
		Preprocess: PreprocessOptions{OutlierThreshold: 0.2, RingWindow: 9, PaganinAlpha: 0.01}}
	var vols [2][]float64
	for i := range vols {
		opts.Workers = i + 1
		v, err := ReconstructVolume(context.Background(), ps, opts)
		if err != nil {
			t.Fatal(err)
		}
		vols[i] = v.Data
	}
	if i := firstDifference(vols[1], vols[0]); i >= 0 {
		t.Fatalf("voxel %d: %v with two workers, %v with one", i, vols[1][i], vols[0][i])
	}
	mid := refPreprocess(ps.SinogramForRow(ps.NRows/2), opts.Preprocess)
	serial := ReconOptions{Algorithm: AlgGridrec, CORShift: FindCenter(mid, 0)}
	n := ps.NCols * ps.NCols
	for r := 0; r < ps.NRows; r++ {
		want, err := ReconstructSlice(refPreprocess(ps.SinogramForRow(r), opts.Preprocess), serial)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDifference(vols[0][r*n:(r+1)*n], want.Pix); i >= 0 {
			t.Fatalf("slice %d pixel %d: volume %v, slice-at-a-time %v", r, i, vols[0][r*n+i], want.Pix[i])
		}
	}
}

// refFindCenter is FindCenter as it was when it memoized costs in a map
// and materialized the flipped 180° row.
func refFindCenter(s *Sinogram, maxShift int) float64 {
	if s.NAngles < 2 {
		return 0
	}
	p0 := s.Row(0)
	p180 := s.Row(s.NAngles - 1)
	n := s.NCols
	flipped := make([]float64, n)
	for i := range flipped {
		flipped[i] = p180[n-1-i]
	}
	if maxShift <= 0 {
		maxShift = n / 4
	}
	if maxShift >= n/2 {
		maxShift = n/2 - 1
	}
	best := 0
	bestCost := math.Inf(1)
	costs := make(map[int]float64)
	cost := func(shift int) float64 {
		if c, ok := costs[shift]; ok {
			return c
		}
		var ss float64
		var cnt int
		for c := 0; c < n; c++ {
			j := c - shift
			if j < 0 || j >= n {
				continue
			}
			d := p0[c] - flipped[j]
			ss += d * d
			cnt++
		}
		if cnt == 0 {
			return math.Inf(1)
		}
		c := ss / float64(cnt)
		costs[shift] = c
		return c
	}
	for shift := -2 * maxShift; shift <= 2*maxShift; shift++ {
		if c := cost(shift); c < bestCost {
			bestCost = c
			best = shift
		}
	}
	delta := float64(best)
	c0 := cost(best)
	cm := cost(best - 1)
	cp := cost(best + 1)
	den := cm - 2*c0 + cp
	if den > 1e-12 && !math.IsInf(cm, 0) && !math.IsInf(cp, 0) {
		delta += 0.5 * (cm - cp) / den * -1
	}
	return delta / 2
}

func TestFindCenterMatchesMemoizedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, ncols := range []int{1, 2, 3, 4, 7, 16, 33} {
		for trial := 0; trial < 40; trial++ {
			s := transmissionSinogram(rng, 2+trial%3, ncols)
			switch trial % 8 {
			case 5: // a flat cost surface: no shift ever beats the first
				for i := range s.Data {
					s.Data[i] = 1
				}
			case 6:
				s.Data[rng.Intn(len(s.Data))] = math.NaN()
			case 7: // the minimum at the end of the sweep
				for c := 0; c < ncols; c++ {
					s.Row(0)[c] = float64(c)
					s.Row(s.NAngles - 1)[c] = float64(c)
				}
			}
			for _, maxShift := range []int{0, 1, ncols} {
				got, want := FindCenter(s, maxShift), refFindCenter(s, maxShift)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%d cols, trial %d, maxShift %d: FindCenter = %v, memoized sweep gives %v",
						ncols, trial, maxShift, got, want)
				}
			}
		}
	}
}

// BenchmarkPreprocess128x180 is one slice of the file_gridrec workload's
// chain on that workload's kind of data — a phantom seen by a detector
// with photon noise, gain rings and zingers — with a held scratch
// (tomo.preprocess_ms_per_slice measures the allocating wrapper from
// outside).
func BenchmarkPreprocess128x180(b *testing.B) {
	acq := Acquire(phantom.SheppLogan3D(128, 1), UniformAngles(180), 128,
		AcquireOptions{I0: 2e4, GainVariation: 0.03, DarkLevel: 40, ZingerProb: 5e-4, ZingerScale: 5, Seed: 1})
	s := Normalize(acq.Raw, acq.Flat, acq.Dark).SinogramForRow(0)
	dst := NewSinogram(s.Theta, s.NCols)
	sc := new(Scratch)
	opts := PreprocessOptions{OutlierThreshold: 0.2, RingWindow: 9}
	preprocessInto(dst, s, opts, sc) // first use sizes the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preprocessInto(dst, s, opts, sc)
	}
}
