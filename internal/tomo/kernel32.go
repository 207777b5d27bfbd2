package tomo

import (
	"math"

	"repro/internal/vol"
)

// This file holds what the single-precision tier (ReconOptions.Precision
// == Float32) does not share with the float64 one: its backprojector and
// the solver bodies that keep the iterate, projections and residuals in
// float32. Its FBP filter is filterPairs on a complex64 plan, and the
// forward projector is shared — walkRays in project.go is one generic
// body for both widths, and it, not the element width, is what the tier's
// 2.3× over the old float64 solvers came from
// (EXPERIMENTS.md §P5). The backprojectors stay apart because their
// contracts differ: backProjectKernel has an exact mode that is
// bit-identical to the naive reference (BackProject, the SIRT column
// weights and SART depend on it) and an incremental interior walk, while
// backProject32 is multiply-form throughout with truncation floors. This
// tier is gated on RMSE against the float64 result, not on 1e-12
// equivalence.

// backProject32 accumulates the backprojection of the nang×ncols
// sinogram data into the n×n float32 image dst (zeroing it first),
// restricted per row to the reconstruction-circle range [lo, hi), then
// applies scale. The detector coordinate is evaluated in multiply form
// (base + k·Δ) with four data-independent angle chains per pixel pass,
// mirroring the float64 kernel's blocking. Allocation-free.
//
//perf:hot
func backProject32(dst []float32, n int, data []float32, nang, ncols int,
	cosT, sinT, xs []float32, lo, hi []int, scale float32) {
	for i := range dst {
		dst[i] = 0
	}
	halfC := float32(ncols) / 2
	dx := 2 / float32(n)
	lastCol := ncols - 1
	lastColF := float32(lastCol)
	for py := 0; py < n; py++ {
		l, h := lo[py], hi[py]
		if l >= h {
			continue
		}
		y := xs[py]
		row := dst[py*n+l : py*n+h]
		m := h - l
		x0 := xs[l]
		a := 0
		for ; a+3 < nang; a += 4 {
			src0 := data[a*ncols : (a+1)*ncols]
			src1 := data[(a+1)*ncols : (a+2)*ncols]
			src2 := data[(a+2)*ncols : (a+3)*ncols]
			src3 := data[(a+3)*ncols : (a+4)*ncols]
			fc0 := (x0*cosT[a]+y*sinT[a]+1)*halfC - 0.5
			fc1 := (x0*cosT[a+1]+y*sinT[a+1]+1)*halfC - 0.5
			fc2 := (x0*cosT[a+2]+y*sinT[a+2]+1)*halfC - 0.5
			fc3 := (x0*cosT[a+3]+y*sinT[a+3]+1)*halfC - 0.5
			d0 := dx * cosT[a] * halfC
			d1 := dx * cosT[a+1] * halfC
			d2 := dx * cosT[a+2] * halfC
			d3 := dx * cosT[a+3] * halfC
			affineQuad32(row, m, src0, src1, src2, src3,
				fc0, fc1, fc2, fc3, d0, d1, d2, d3, lastCol, lastColF)
		}
		for ; a < nang; a++ {
			src := data[a*ncols : (a+1)*ncols]
			fc := (x0*cosT[a]+y*sinT[a]+1)*halfC - 0.5
			d := dx * cosT[a] * halfC
			affineSpan32(row, m, src, fc, d, lastCol, lastColF)
		}
	}
	for i := range dst {
		dst[i] *= scale
	}
}

// affineQuad32 accumulates four angles into row[0:m) with multiply-form
// detector coordinates. Floors use the truncation identity int(f+1)-1,
// which matches math.Floor wherever the resulting column index can pass
// the range test (f ≥ -1); more-negative coordinates may truncate a bin
// high but remain negative and excluded either way.
func affineQuad32(row []float32, m int, src0, src1, src2, src3 []float32,
	fc0, fc1, fc2, fc3, d0, d1, d2, d3 float32, lastCol int, lastColF float32) {
	var kf float32
	for j := 0; j < m; j++ {
		f0 := fc0 + kf*d0
		f1 := fc1 + kf*d1
		f2 := fc2 + kf*d2
		f3 := fc3 + kf*d3
		kf++
		var v01, v23 float32
		c := int(f0+1) - 1
		if c >= 0 && c < lastCol {
			fr := f0 - float32(c)
			v01 = src0[c] + fr*(src0[c+1]-src0[c])
		} else if c == lastCol && f0 <= lastColF {
			v01 = src0[lastCol]
		}
		c = int(f1+1) - 1
		if c >= 0 && c < lastCol {
			fr := f1 - float32(c)
			v01 += src1[c] + fr*(src1[c+1]-src1[c])
		} else if c == lastCol && f1 <= lastColF {
			v01 += src1[lastCol]
		}
		c = int(f2+1) - 1
		if c >= 0 && c < lastCol {
			fr := f2 - float32(c)
			v23 = src2[c] + fr*(src2[c+1]-src2[c])
		} else if c == lastCol && f2 <= lastColF {
			v23 = src2[lastCol]
		}
		c = int(f3+1) - 1
		if c >= 0 && c < lastCol {
			fr := f3 - float32(c)
			v23 += src3[c] + fr*(src3[c+1]-src3[c])
		} else if c == lastCol && f3 <= lastColF {
			v23 += src3[lastCol]
		}
		row[j] += v01 + v23
	}
}

// affineSpan32 accumulates one angle into row[0:m) — the tail of the
// four-wide blocking and the whole of SART's single-angle updates.
func affineSpan32(row []float32, m int, src []float32, fc, d float32, lastCol int, lastColF float32) {
	var kf float32
	for j := 0; j < m; j++ {
		f := fc + kf*d
		kf++
		c := int(f+1) - 1
		if c >= 0 && c < lastCol {
			fr := f - float32(c)
			row[j] += src[c] + fr*(src[c+1]-src[c])
		} else if c == lastCol && f <= lastColF {
			row[j] += src[lastCol]
		}
	}
}

// fbpInto32 is the single-precision FBP path: batch ramp filtering on the
// complex64 FFT plan, then float32 backprojection, with one widening copy
// into the float64 destination at the end.
//
//perf:hot
func (p *ReconPlan) fbpInto32(dst *vol.Image, s *Sinogram, sc *Scratch) {
	filterPairs(p.fp32, p.taps32, sc.batch32, sc.filt32, s.Data, p.NCols, p.order)
	backProject32(sc.upd32, p.Size, sc.filt32, p.NAngles, p.NCols,
		p.cosT32, p.sinT32, p.xs32, p.loPx, p.hiPx,
		float32(math.Pi)/float32(p.NAngles))
	for i, v := range sc.upd32 {
		dst.Pix[i] = float64(v)
	}
}

// sirtInto32 runs the SIRT iteration entirely in single precision: the
// iterate, forward projections, residuals, and update image are float32,
// and the ray weights come from the plan's converted tables. Input and
// output cross the float64 boundary exactly once each.
//
//perf:hot
func (p *ReconPlan) sirtInto32(dst *vol.Image, s *Sinogram, sc *Scratch) {
	for i, v := range s.Data {
		sc.sino32[i] = float32(v)
	}
	x := sc.x32
	for i := range x {
		x[i] = 0
	}
	n := p.Size
	relax := float32(sirtRelax)
	bpScale := float32(math.Pi) / float32(p.NAngles)
	for it := 0; it < p.Iterations; it++ {
		for a := 0; a < p.NAngles; a++ {
			walkRays(sc.ax32[a*p.NCols:(a+1)*p.NCols], x, n, p.cosT[a], p.sinT[a])
		}
		for i := range sc.res32 {
			r := sc.sino32[i] - sc.ax32[i]
			if w := p.rowSum32[i]; w > 1e-9 {
				r /= w
			} else {
				r = 0
			}
			sc.res32[i] = r
		}
		backProject32(sc.upd32, n, sc.res32, p.NAngles, p.NCols,
			p.cosT32, p.sinT32, p.xs32, p.loPx, p.hiPx, bpScale)
		for i := range x {
			c := p.colSum32[i]
			if c <= 1e-9 {
				continue
			}
			x[i] += relax * sc.upd32[i] / c
			if x[i] < 0 {
				x[i] = 0
			}
		}
	}
	for i, v := range x {
		dst.Pix[i] = float64(v)
	}
}

// sartInto32 is the single-precision block-iterative solver: per-angle
// forward projection, residual normalization, and single-angle
// backprojection, all in float32.
//
//perf:hot
func (p *ReconPlan) sartInto32(dst *vol.Image, s *Sinogram, sc *Scratch) {
	for i, v := range s.Data {
		sc.sino32[i] = float32(v)
	}
	x := sc.x32
	for i := range x {
		x[i] = 0
	}
	n := p.Size
	relax := sartRelax // a float64 variable, so relax/π rounds at run time
	scale := float32(relax / math.Pi)
	for it := 0; it < p.Iterations; it++ {
		for a := 0; a < p.NAngles; a++ {
			walkRays(sc.ax32, x, n, p.cosT[a], p.sinT[a])
			brow := sc.sino32[a*p.NCols : (a+1)*p.NCols]
			wrow := p.rowSum32[a*p.NCols : (a+1)*p.NCols]
			for c := 0; c < p.NCols; c++ {
				r := brow[c] - sc.ax32[c]
				if wrow[c] > 1e-9 {
					r /= wrow[c]
				} else {
					r = 0
				}
				sc.res32[c] = r
			}
			backProject32(sc.upd32, n, sc.res32, 1, p.NCols,
				p.cosT32[a:a+1], p.sinT32[a:a+1], p.xs32, p.loPx, p.hiPx, math.Pi)
			for i := range x {
				x[i] += scale * sc.upd32[i]
				if x[i] < 0 {
					x[i] = 0
				}
			}
		}
	}
	for i, v := range x {
		dst.Pix[i] = float64(v)
	}
}
