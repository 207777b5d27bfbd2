package tomo

import (
	"math"

	"repro/internal/fft"
)

// Normalize applies flat-field and dark-field correction to a raw
// transmission projection set: out = (raw - dark) / (flat - dark), clamped
// to a small positive floor so the subsequent log is defined. flat and
// dark are per-detector-pixel references (NRows×NCols).
func Normalize(raw *ProjectionSet, flat, dark []float64) *ProjectionSet {
	out := NewProjectionSet(raw.Theta, raw.NRows, raw.NCols)
	n := raw.NRows * raw.NCols
	const floor = 1e-6
	for a := 0; a < raw.NAngles; a++ {
		src := raw.Projection(a)
		dst := out.Projection(a)
		for i := 0; i < n; i++ {
			den := flat[i] - dark[i]
			if den < floor {
				den = floor
			}
			v := (src[i] - dark[i]) / den
			if v < floor {
				v = floor
			}
			dst[i] = v
		}
	}
	return out
}

// MinusLog converts normalized transmission values into line integrals of
// attenuation: out = -ln(in). Values are clamped below at a small floor.
func MinusLog(p *ProjectionSet) *ProjectionSet {
	out := NewProjectionSet(p.Theta, p.NRows, p.NCols)
	minusLogRow(out.Data, p.Data)
	return out
}

// minusLogRow stores -ln(max(src, 1e-6)) into dst; the two may alias.
//
//perf:hot
func minusLogRow(dst, src []float64) {
	for i, v := range src {
		if v < 1e-6 {
			v = 1e-6
		}
		dst[i] = -math.Log(v)
	}
}

//perf:hot
func addRow(sum, row []float64) {
	for c, v := range row {
		sum[c] += v
	}
}

//perf:hot
func subtractRow(row, profile []float64) {
	for c := range row {
		row[c] -= profile[c]
	}
}

// ringProfile turns per-column sums over nangles rows into the ring
// correction, in place: each column's mean minus the moving average of the
// means around it. smooth is scratch of the same length.
//
//perf:hot
func ringProfile(sum, smooth []float64, nangles, window int) {
	for c := range sum {
		sum[c] /= float64(nangles)
	}
	half := window / 2
	for i := range sum {
		lo := i - half
		hi := i + half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(sum) {
			hi = len(sum) - 1
		}
		var acc float64
		for j := lo; j <= hi; j++ {
			acc += sum[j]
		}
		smooth[i] = acc / float64(hi-lo+1)
	}
	for c := range sum {
		sum[c] -= smooth[c]
	}
}

// removeOutliersRow copies src into dst, replacing every sample more than
// threshold above the median of its up to four neighbours (two on each
// side, all read from src) with that median. dst must not alias src.
//
//perf:hot
func removeOutliersRow(dst, src []float64, threshold float64) {
	n := len(src)
	var win [4]float64
	for c, v := range src {
		k := 0
		if c >= 2 && c+2 < n {
			win = [4]float64{src[c-2], src[c-1], src[c+1], src[c+2]}
			// The median of four is no smaller than the second smallest,
			// and rounding is monotone: a sample within threshold of all
			// four neighbours is within threshold of their median, which
			// then need not be found. Nearly every sample leaves here.
			if v-win[0] <= threshold && v-win[1] <= threshold && v-win[2] <= threshold && v-win[3] <= threshold {
				dst[c] = v
				continue
			}
			k = 4
		} else {
			for j := c - 2; j <= c+2; j++ {
				if j >= 0 && j < n && j != c {
					win[k] = src[j]
					k++
				}
			}
		}
		if med := median(&win, k); v-med > threshold {
			v = med
		}
		dst[c] = v
	}
}

// median returns the median of win[:n] (0 for n = 0), sorting win in
// place. The order is sort.Float64s's — ascending with NaNs first — so the
// result is the one a copy-and-sort gives on every input.
//
//perf:hot
func median(win *[4]float64, n int) float64 {
	for i := 1; i < n; i++ {
		for j := i; j > 0 && floatLess(win[j], win[j-1]); j-- {
			win[j], win[j-1] = win[j-1], win[j]
		}
	}
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return win[n/2]
	}
	return (win[n/2-1] + win[n/2]) / 2
}

// floatLess is the order sort.Float64s sorts by: NaN before every number.
//
//perf:hot
func floatLess(x, y float64) bool {
	return x < y || (x != x && y == y)
}

// paganinRow low-pass filters one row in place through pl, whose length is
// NextPow2(len(row)), with buf (of that length) as the transform buffer.
//
//perf:hot
func paganinRow(row []float64, alpha float64, pl *fft.Plan, buf []complex128) {
	m := len(buf)
	nc := float64(len(row))
	// Symmetric edge padding reduces boundary ringing.
	for i := range buf {
		j := i
		if j >= len(row) {
			j = 2*len(row) - 2 - j
			if j < 0 {
				j = 0
			}
		}
		buf[i] = complex(row[j], 0)
	}
	pl.Forward(buf)
	for i := range buf {
		k := float64(fft.FreqIndex(i, m)) / float64(m)
		buf[i] /= complex(1+alpha*k*k*nc*nc, 0)
	}
	pl.Inverse(buf)
	for i := range row {
		row[i] = real(buf[i])
	}
}

// PreprocessOptions bundles the file-branch preprocessing chain the paper's
// TomoPy jobs run before reconstruction; zero values disable each step.
type PreprocessOptions struct {
	OutlierThreshold float64 // zinger removal threshold (0 = off)
	RingWindow       int     // ring-removal smoothing window (0 = off)
	PaganinAlpha     float64 // phase-filter strength (0 = off)
}

// Preprocess applies outlier removal, -log conversion, ring removal, and
// phase filtering to a normalized-transmission sinogram, in the order the
// beamline pipeline runs them.
func Preprocess(s *Sinogram, opts PreprocessOptions) *Sinogram {
	out := NewSinogram(s.Theta, s.NCols)
	preprocessInto(out, s, opts, new(Scratch))
	return out
}

// preprocessInto is the whole chain in two sweeps over the sinogram — the
// Savu shape: one pattern-ordered pass through every step rather than one
// full pass (and one fresh sinogram) per step. The first sweep takes each
// angle row through outlier replacement and -log into dst while summing
// the columns; the second subtracts the ring profile those sums give and
// phase-filters, row by row. Each value is computed by the same operations
// in the same order as by calling the exported steps one after another, so
// the result is == theirs. dst must match src's shape and not alias it;
// with a held scratch the steady state allocates nothing.
//
//perf:hot
func preprocessInto(dst, src *Sinogram, opts PreprocessOptions, sc *Scratch) {
	nc := src.NCols
	rings, paganin := opts.RingWindow > 0, opts.PaganinAlpha > 0
	sc.sizePreprocess(nc, paganin)
	sum, smooth := sc.ring[:nc], sc.ring[nc:]
	for c := range sum {
		sum[c] = 0
	}
	for a := 0; a < src.NAngles; a++ {
		in, out := src.Row(a), dst.Row(a)
		if opts.OutlierThreshold > 0 {
			removeOutliersRow(out, in, opts.OutlierThreshold)
			in = out
		}
		minusLogRow(out, in)
		if rings {
			addRow(sum, out)
		}
	}
	if rings {
		ringProfile(sum, smooth, src.NAngles, opts.RingWindow)
	}
	if !rings && !paganin {
		return
	}
	for a := 0; a < src.NAngles; a++ {
		out := dst.Row(a)
		if rings {
			subtractRow(out, sum)
		}
		if paganin {
			paganinRow(out, opts.PaganinAlpha, sc.pplan, sc.pbuf)
		}
	}
}

// sizePreprocess makes the scratch's preprocessing buffers fit ncols
// detector columns: the cold, allocating half of preprocessInto. Scratches
// are not sized for preprocessing up front because a plan does not know
// whether its volume will be preprocessed.
func (sc *Scratch) sizePreprocess(ncols int, paganin bool) {
	if len(sc.ring) != 2*ncols {
		sc.ring = make([]float64, 2*ncols)
	}
	if m := fft.NextPow2(ncols); paganin && len(sc.pbuf) != m {
		sc.pplan, sc.pbuf = fft.PlanFor(m), make([]complex128, m)
	}
}

// preprocessed runs the chain on src into a sinogram the scratch owns and
// returns it; the next call overwrites it.
func (sc *Scratch) preprocessed(src *Sinogram, opts PreprocessOptions) *Sinogram {
	if sc.pre == nil || sc.pre.NAngles != src.NAngles || sc.pre.NCols != src.NCols {
		sc.pre = NewSinogram(src.Theta, src.NCols)
	}
	preprocessInto(sc.pre, src, opts, sc)
	return sc.pre
}
