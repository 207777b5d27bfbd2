package tomo

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/vol"
)

// projectRow integrates the parallel-beam Radon transform of im along the
// rays of a single projection angle (given as its cosine and sine),
// filling one sinogram row. Rays step through the unit square with
// bilinear sampling at half-pixel steps. Every accepted sample keeps the
// naive arithmetic bit for bit (Project, Acquire and the plans' ray
// weights are defined by it); the samples outside the square are skipped
// by rayStepBounds rather than computed and rejected. Allocation-free.
//
//perf:hot
func projectRow(row []float64, im *vol.Image, ct, st float64) {
	n := im.W
	step := 1.0 / float64(n) // half a pixel in [-1,1] units
	tMax := math.Sqrt2
	nSteps := int(2 * tMax / step)
	ncols := len(row)
	for c := 0; c < ncols; c++ {
		sc := -1 + (2*float64(c)+1)/float64(ncols)
		k0, k1 := rayStepBounds(sc, ct, st, tMax, step, nSteps)
		var sum float64
		for k := k0; k <= k1; k++ {
			t := -tMax + float64(k)*step
			// Ray point in object coordinates.
			x := sc*ct - t*st
			y := sc*st + t*ct
			// Map to pixel coordinates (pixel centers at -1+(2i+1)/n).
			px := (x+1)/2*float64(n) - 0.5
			py := (y+1)/2*float64(im.H) - 0.5
			sum += im.Bilinear(px, py)
		}
		row[c] = sum * step
	}
}

// rayStepBounds returns the inclusive step-index range [k0, k1] of the
// samples t = -tMax + k·step that lie inside the unit square for the ray
// at detector coordinate sc, judged by rayInside. The crossing times of
// the |x|≤1 and |y|≤1 constraints are solved analytically (both
// coordinates are linear in t), then the boundary indices are nudged
// against the exact float64 predicate so reciprocal rounding can never
// add or drop a sample. x and y as rayInside rounds them are monotone in
// k, so the accepted samples are one contiguous run and testing its two
// ends decides every sample.
func rayStepBounds(sc, ct, st, tMax, step float64, nSteps int) (int, int) {
	tlo, thi := -tMax, tMax
	if st != 0 {
		ta := (sc*ct - 1) / st
		tb := (sc*ct + 1) / st
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > tlo {
			tlo = ta
		}
		if tb < thi {
			thi = tb
		}
	} else if x := sc * ct; x < -1 || x > 1 {
		return 0, -1
	}
	if ct != 0 {
		ta := (-1 - sc*st) / ct
		tb := (1 - sc*st) / ct
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > tlo {
			tlo = ta
		}
		if tb < thi {
			thi = tb
		}
	} else if y := sc * st; y < -1 || y > 1 {
		return 0, -1
	}
	if thi < tlo {
		return 0, -1
	}
	k0 := int(math.Ceil((tlo + tMax) / step))
	k1 := int(math.Floor((thi + tMax) / step))
	if k0 < 0 {
		k0 = 0
	}
	if k1 > nSteps {
		k1 = nSteps
	}
	for k0 <= k1 && !rayInside(sc, ct, st, tMax, step, k0) {
		k0++
	}
	for k0 > 0 && rayInside(sc, ct, st, tMax, step, k0-1) {
		k0--
	}
	for k1 >= k0 && !rayInside(sc, ct, st, tMax, step, k1) {
		k1--
	}
	for k1 >= k0 && k1 < nSteps && rayInside(sc, ct, st, tMax, step, k1+1) {
		k1++
	}
	return k0, k1
}

// rayInside is the sample-acceptance predicate of the forward projector,
// in projectRow's arithmetic order.
func rayInside(sc, ct, st, tMax, step float64, k int) bool {
	t := -tMax + float64(k)*step
	x := sc*ct - t*st
	y := sc*st + t*ct
	return x >= -1 && x <= 1 && y >= -1 && y <= 1
}

// rayWalk is what every ray of one projection angle shares in walkRays:
// projectRow's sampling lattice t = -tMax + k·step, the pixel-coordinate
// advance per step, and the interior box [lo, hi]² of pixel coordinates
// whose four bilinear taps exist without clamping.
type rayWalk struct {
	n            int
	ct, st       float64
	step, tMax   float64
	nSteps       int
	dpx, dpy     float64 // d(px)/dk = -sinθ/2, d(py)/dk = cosθ/2
	invDx, invDy float64 // reciprocals of the above where non-zero
	lo, hi       float64
}

// newRayWalk sets up the walk over an n×n image for the angle with cosine
// ct and sine st. eps is the spacing at 1 of the float width the pixel
// coordinates will be evaluated in: the interior box is shrunk by 4·eps·n
// per side, more than the ≈ 2.4·eps·n a coordinate p0 + j·Δ of magnitude
// ≤ n can be off by after rounding p0, Δ, the product and the sum, so a
// coordinate the box admits in exact arithmetic is inside [0, n-1) as the
// walker computes it.
func newRayWalk(n int, ct, st, eps float64) rayWalk {
	w := rayWalk{
		n: n, ct: ct, st: st,
		step: 1 / float64(n), tMax: math.Sqrt2,
		dpx: -st * 0.5, dpy: ct * 0.5,
	}
	w.nSteps = int(2 * w.tMax / w.step)
	if w.dpx != 0 {
		w.invDx = 1 / w.dpx
	}
	if w.dpy != 0 {
		w.invDy = 1 / w.dpy
	}
	w.lo = 4 * eps * float64(n)
	w.hi = float64(n-1) - w.lo
	return w
}

// ray locates the samples of the ray at detector coordinate sc: their
// count m (rayStepBounds' run, so exactly projectRow's sample set), the
// pixel coordinates (px, py) of the first one in projectRow's arithmetic,
// and the half-open range [j0, j1) of offsets into the run whose samples
// lie in the interior box. Sample j sits at (px + j·dpx, py + j·dpy).
func (w *rayWalk) ray(sc float64) (m int, px, py float64, j0, j1 int) {
	k0, k1 := rayStepBounds(sc, w.ct, w.st, w.tMax, w.step, w.nSteps)
	if k1 < k0 {
		return 0, 0, 0, 0, 0
	}
	m = k1 - k0 + 1
	t := -w.tMax + float64(k0)*w.step
	nF := float64(w.n)
	px = (sc*w.ct-t*w.st+1)/2*nF - 0.5
	py = (sc*w.st+t*w.ct+1)/2*nF - 0.5
	if w.hi < w.lo { // 1×1 image: no sample has four taps
		return m, px, py, 0, 0
	}
	j0, j1 = spanWithin(0, m, px, w.dpx, w.invDx, w.lo, w.hi)
	j0, j1 = spanWithin(j0, j1, py, w.dpy, w.invDy, w.lo, w.hi)
	return m, px, py, j0, j1
}

// spanWithin narrows the half-open offset range [j0, j1) to the offsets j
// with lo ≤ p + j·d ≤ hi, given inv = 1/d (unused when d is 0). The range
// it returns is never inverted; an empty one has j0 == j1.
func spanWithin(j0, j1 int, p, d, inv, lo, hi float64) (int, int) {
	if d == 0 {
		if p < lo || p > hi {
			return j0, j0
		}
		return j0, j1
	}
	a, b := (lo-p)*inv, (hi-p)*inv
	if a > b {
		a, b = b, a
	}
	// Now a ≤ j ≤ b. Comparing before converting keeps the huge quotients
	// of a near-zero d out of the integer conversions.
	if a > float64(j0) {
		if a > float64(j1) {
			return j0, j0
		}
		j0 = int(math.Ceil(a))
	}
	if b < float64(j1) {
		if b < float64(j0) {
			return j0, j0
		}
		j1 = int(math.Floor(b)) + 1
	}
	return j0, j1
}

// widthEps returns the spacing of F's values at 1 (2⁻²³ or 2⁻⁵²), found
// by halving until the width stops resolving the difference.
func widthEps[F float32 | float64]() float64 {
	e := F(1)
	for F(1+e/2) > 1 {
		e /= 2
	}
	return float64(e)
}

// walkRays is the forward projector of the iterative solvers in both
// float widths: one sinogram row for the angle with cosine ct and sine st,
// integrating over the square image pix (side n). It integrates exactly
// projectRow's samples, in projectRow's order, and differs from it only in
// rounding: pixel coordinates advance in multiply form p0 + j·Δ from the
// ray's first sample instead of being mapped from object coordinates one
// by one, and the bilinear weights are applied as two lerps. The samples
// rayWalk.ray places in the interior box are read with no clamps and no
// range tests; the few at either end of a ray go through clampedSamples.
// Allocation-free.
//
//perf:hot
func walkRays[F float32 | float64](row, pix []F, n int, ct, st float64) {
	w := newRayWalk(n, ct, st, widthEps[F]())
	dpx, dpy := F(w.dpx), F(w.dpy)
	step := F(w.step)
	ncols := len(row)
	for c := 0; c < ncols; c++ {
		sc := -1 + (2*float64(c)+1)/float64(ncols)
		m, x0, y0, j0, j1 := w.ray(sc)
		px0, py0 := F(x0), F(y0)
		sum := clampedSamples(0, pix, n, px0, py0, dpx, dpy, 0, j0)
		jf := F(j0) // == F(j) throughout; converting j per sample read 7–13 % slower
		for j := j0; j < j1; j++ {
			qx := px0 + jf*dpx
			qy := py0 + jf*dpy
			jf++
			ix, iy := int(qx), int(qy)
			fx, fy := qx-F(ix), qy-F(iy)
			base := iy*n + ix
			p00, p01 := pix[base], pix[base+1]
			p10, p11 := pix[base+n], pix[base+n+1]
			top := p00 + fx*(p01-p00)
			bot := p10 + fx*(p11-p10)
			sum += top + fy*(bot-top)
		}
		row[c] = clampedSamples(sum, pix, n, px0, py0, dpx, dpy, j1, m) * step
	}
}

// clampedSamples adds to sum the bilinear samples at offsets [ja, jb) of
// the ray starting at (px0, py0), clamping coordinates and taps to the
// image border like vol.Image.Bilinear, and returns the new sum.
func clampedSamples[F float32 | float64](sum F, pix []F, n int, px0, py0, dpx, dpy F, ja, jb int) F {
	last := n - 1
	lastF := F(last)
	for j := ja; j < jb; j++ {
		qx := px0 + F(j)*dpx
		qy := py0 + F(j)*dpy
		if qx < 0 {
			qx = 0
		} else if qx > lastF {
			qx = lastF
		}
		if qy < 0 {
			qy = 0
		} else if qy > lastF {
			qy = lastF
		}
		ix, iy := int(qx), int(qy)
		ix1, iy1 := ix+1, iy+1
		if ix1 > last {
			ix1 = last
		}
		if iy1 > last {
			iy1 = last
		}
		fx, fy := qx-F(ix), qy-F(iy)
		p00, p01 := pix[iy*n+ix], pix[iy*n+ix1]
		p10, p11 := pix[iy1*n+ix], pix[iy1*n+ix1]
		top := p00 + fx*(p01-p00)
		bot := p10 + fx*(p11-p10)
		sum += top + fy*(bot-top)
	}
	return sum
}

// Project computes the parallel-beam Radon transform of im for the given
// angles, producing a sinogram with ncols detector columns.
func Project(im *vol.Image, theta []float64, ncols int) *Sinogram {
	s := NewSinogram(theta, ncols)
	for a, th := range theta {
		projectRow(s.Row(a), im, math.Cos(th), math.Sin(th))
	}
	return s
}

// ProjectVolume forward projects every slice of v, assembling the full
// angle-major projection set the detector would emit. Each volume slice z
// becomes detector row z. Slices are independent, so the work fans out
// over a bounded worker pool (GOMAXPROCS), each worker writing its
// disjoint detector rows directly into the shared set — output is
// byte-identical to the serial order.
func ProjectVolume(v *vol.Volume, theta []float64, ncols int) *ProjectionSet {
	ps := NewProjectionSet(theta, v.D, ncols)
	workers := runtime.GOMAXPROCS(0)
	if workers > v.D {
		workers = v.D
	}
	if workers <= 1 {
		for z := 0; z < v.D; z++ {
			projectSliceInto(ps, v, z)
		}
		return ps
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go projectWorker(&wg, ps, v, w, workers)
	}
	wg.Wait()
	return ps
}

func projectWorker(wg *sync.WaitGroup, ps *ProjectionSet, v *vol.Volume, start, stride int) {
	defer wg.Done()
	for z := start; z < v.D; z += stride {
		projectSliceInto(ps, v, z)
	}
}

// projectSliceInto forward projects volume slice z into detector row z of
// ps, writing each angle's row in place.
func projectSliceInto(ps *ProjectionSet, v *vol.Volume, z int) {
	im := v.Slice(z)
	for a, th := range ps.Theta {
		base := (a*ps.NRows + z) * ps.NCols
		projectRow(ps.Data[base:base+ps.NCols], im, math.Cos(th), math.Sin(th))
	}
}

// BackProject computes the unfiltered adjoint of Project onto an n×n image:
// each pixel accumulates the linearly interpolated detector sample at
// s = x·cosθ + y·sinθ for every angle, scaled by π/NAngles. It is the
// smoothing operator FBP sharpens with the ramp filter, and the transpose
// operator the iterative solvers use.
func BackProject(s *Sinogram, n int) *vol.Image {
	im := vol.NewImage(n, n)
	cosT, sinT := trigTables(s.Theta)
	xs := pixelCenters(n)
	lo, hi := circleBounds(xs)
	backProjectKernel(im, s, cosT, sinT, xs, lo, hi, math.Pi/float64(s.NAngles), false, nil, nil)
	return im
}

// backProjectKernel accumulates the backprojection of s into dst (zeroing
// it first), restricted per image row to the reconstruction-circle pixel
// range [lo, hi), then applies the final scale. cosT/sinT must have one
// entry per sinogram row. Allocation-free.
//
// The affine form exploits that along an image row the detector
// coordinate fc is affine in the pixel index, replacing the two
// multiplies and two adds of s = x·cosθ + y·sinθ per sample with one
// multiply-add from the row's base coordinate. The multiply form
// (base + k·Δ, not a running sum) keeps the deviation from the exact
// per-pixel evaluation at ~1e-13 even across thousands of columns. The
// exact form reproduces
// the naive arithmetic bit-for-bit: BackProject, the SIRT column weights
// built from it, and SART's single-angle updates use it. SIRT's per-
// iteration backprojection runs the affine form like FBP — the iteration
// does not amplify its rounding (≤ 1.6e-15 from the naive solver after 50
// iterations, EXPERIMENTS.md §P5).
//
// dTab/invD, when non-nil, are the plan's per-angle detector steps
// Δ = dx·cosθ·ncols/2 and reciprocals, with every |Δ| ≤ 1 guaranteed by
// the caller. They enable the incremental interior walk: within the
// span of a row where fc provably stays inside (0, lastCol) — located
// conservatively from Δ's reciprocal, with the leftovers handed to the
// exact multiply-form predicate — the per-sample floor/convert/range
// checks collapse to one addition and a carry adjust. The walk's
// accumulated rounding (≲1e-13) only perturbs the interpolation point
// of a continuous piecewise-linear function, never an include/exclude
// decision, so results stay within the plan's 1e-12 equivalence bound.
// The walk takes four angles per pixel pass: their interpolation chains
// are data-independent, so their floor/load/lerp latencies overlap instead
// of serialising on the accumulator. The angles left over, and every angle
// when the walk is not licensed, go one at a time through angleWalk.
//
//perf:hot
func backProjectKernel(dst *vol.Image, s *Sinogram, cosT, sinT, xs []float64, lo, hi []int, scale float64, affine bool, dTab, invD []float64) {
	n := dst.W
	pix := dst.Pix
	for i := range pix {
		pix[i] = 0
	}
	ncolsF := float64(s.NCols)
	halfC := ncolsF / 2
	dx := 2.0 / float64(n) // pixel pitch in object units
	lastCol := s.NCols - 1
	lastColF := float64(lastCol)
	nang := len(cosT)
	for py := 0; py < n; py++ {
		l, h := lo[py], hi[py]
		if l >= h {
			continue
		}
		y := xs[py]
		out := pix[py*n : (py+1)*n]
		if affine {
			x0 := xs[l]
			row := out[l:h]
			m := len(row)
			ncols := s.NCols
			a := 0
			for ; dTab != nil && a+3 < nang; a += 4 {
				src0 := s.Data[a*ncols : (a+1)*ncols]
				src1 := s.Data[(a+1)*ncols : (a+2)*ncols]
				src2 := s.Data[(a+2)*ncols : (a+3)*ncols]
				src3 := s.Data[(a+3)*ncols : (a+4)*ncols]
				// fc(px) = (x·ct + y·st + 1)·ncols/2 − 0.5 with
				// x = xs[l] + (px−l)·dx.
				fc0 := (x0*cosT[a]+y*sinT[a]+1)*halfC - 0.5
				fc1 := (x0*cosT[a+1]+y*sinT[a+1]+1)*halfC - 0.5
				fc2 := (x0*cosT[a+2]+y*sinT[a+2]+1)*halfC - 0.5
				fc3 := (x0*cosT[a+3]+y*sinT[a+3]+1)*halfC - 0.5
				d0, d1, d2, d3 := dTab[a], dTab[a+1], dTab[a+2], dTab[a+3]
				// Interior where all four chains provably stay inside
				// the detector; the conservative estimate hands edge
				// pixels to the exact predicate in affineSpan.
				jLo, jHi := 0, m
				lo0, hi0 := stepSpan(fc0, d0, invD[a], m, lastColF)
				lo1, hi1 := stepSpan(fc1, d1, invD[a+1], m, lastColF)
				lo2, hi2 := stepSpan(fc2, d2, invD[a+2], m, lastColF)
				lo3, hi3 := stepSpan(fc3, d3, invD[a+3], m, lastColF)
				jLo = max4(lo0, lo1, lo2, lo3)
				jHi = min4(hi0, hi1, hi2, hi3)
				if jHi < jLo {
					jLo, jHi = 0, 0
				}
				if jLo > 0 || jHi < m {
					affineSpan(row, 0, jLo, src0, fc0, d0, lastCol, lastColF)
					affineSpan(row, 0, jLo, src1, fc1, d1, lastCol, lastColF)
					affineSpan(row, 0, jLo, src2, fc2, d2, lastCol, lastColF)
					affineSpan(row, 0, jLo, src3, fc3, d3, lastCol, lastColF)
					affineSpan(row, jHi, m, src0, fc0, d0, lastCol, lastColF)
					affineSpan(row, jHi, m, src1, fc1, d1, lastCol, lastColF)
					affineSpan(row, jHi, m, src2, fc2, d2, lastCol, lastColF)
					affineSpan(row, jHi, m, src3, fc3, d3, lastCol, lastColF)
				}
				if jLo >= jHi {
					continue
				}
				f0 := fc0 + float64(jLo)*d0
				f1 := fc1 + float64(jLo)*d1
				f2 := fc2 + float64(jLo)*d2
				f3 := fc3 + float64(jLo)*d3
				fl0, fl1 := math.Floor(f0), math.Floor(f1)
				fl2, fl3 := math.Floor(f2), math.Floor(f3)
				c0, c1, c2, c3 := int(fl0), int(fl1), int(fl2), int(fl3)
				fr0, fr1, fr2, fr3 := f0-fl0, f1-fl1, f2-fl2, f3-fl3
				for j := jLo; j < jHi; j++ {
					v01 := src0[c0] + fr0*(src0[c0+1]-src0[c0])
					v01 += src1[c1] + fr1*(src1[c1+1]-src1[c1])
					v23 := src2[c2] + fr2*(src2[c2+1]-src2[c2])
					v23 += src3[c3] + fr3*(src3[c3+1]-src3[c3])
					row[j] += v01 + v23
					fr0 += d0
					if fr0 >= 1 {
						fr0--
						c0++
					} else if fr0 < 0 {
						fr0++
						c0--
					}
					fr1 += d1
					if fr1 >= 1 {
						fr1--
						c1++
					} else if fr1 < 0 {
						fr1++
						c1--
					}
					fr2 += d2
					if fr2 >= 1 {
						fr2--
						c2++
					} else if fr2 < 0 {
						fr2++
						c2--
					}
					fr3 += d3
					if fr3 >= 1 {
						fr3--
						c3++
					} else if fr3 < 0 {
						fr3++
						c3--
					}
				}
			}
			for ; a < nang; a++ {
				ct, st := cosT[a], sinT[a]
				src := s.Data[a*ncols : (a+1)*ncols]
				fc0 := (x0*ct+y*st+1)*halfC - 0.5
				if dTab != nil {
					angleWalk(row, src, fc0, dTab[a], invD[a], true, lastCol, lastColF)
				} else {
					angleWalk(row, src, fc0, dx*ct*halfC, 0, false, lastCol, lastColF)
				}
			}
			continue
		}
		for a := 0; a < nang; a++ {
			ct, st := cosT[a], sinT[a]
			src := s.Data[a*s.NCols : (a+1)*s.NCols]
			for px := l; px < h; px++ {
				sc := xs[px]*ct + y*st
				// Detector column with centers at -1+(2c+1)/ncols.
				fc := (sc+1)/2*ncolsF - 0.5
				c0 := int(math.Floor(fc))
				if c0 < 0 || c0 >= lastCol {
					if c0 == lastCol && fc <= lastColF {
						out[px] += src[c0]
					}
					continue
				}
				f := fc - float64(c0)
				out[px] += src[c0]*(1-f) + src[c0+1]*f
			}
		}
	}
	for i := range pix {
		pix[i] *= scale
	}
}

// affineSpan accumulates one angle into row[j0:j1) with the exact
// multiply-form coordinate and the full naive predicate — used for the
// edge pixels around an incremental interior, and by angleWalk for a whole
// row when no interior walk is licensed.
func affineSpan(row []float64, j0, j1 int, src []float64, fc, d float64, lastCol int, lastColF float64) {
	kf := float64(j0)
	for j := j0; j < j1; j++ {
		f := fc + kf*d
		kf++
		fl := math.Floor(f)
		c := int(fl)
		if c >= 0 && c < len(src)-1 {
			fr := f - fl
			row[j] += src[c] + fr*(src[c+1]-src[c])
		} else if c == lastCol && f <= lastColF {
			row[j] += src[lastCol]
		}
	}
}

// angleWalk accumulates one angle's filtered detector row src into row, an
// image row's span inside the circle, whose pixel j reads the detector at
// fc + j·d. With walk set (|d| ≤ 1, inv = 1/d) the span stepSpan proves
// interior is walked as backProjectKernel's four-angle loop walks it, one
// add and a carry per pixel, and only the pixels at either end take
// affineSpan's exact multiply form; without it — a grid coarser than the
// detector — the whole span does. The tail angles of backProjectKernel and
// IncrementalRecon's one angle at a time both run here.
//
//perf:hot
func angleWalk(row, src []float64, fc, d, inv float64, walk bool, lastCol int, lastColF float64) {
	m := len(row)
	jLo, jHi := 0, 0
	if walk {
		jLo, jHi = stepSpan(fc, d, inv, m, lastColF)
	}
	affineSpan(row, 0, jLo, src, fc, d, lastCol, lastColF)
	affineSpan(row, jHi, m, src, fc, d, lastCol, lastColF)
	if jLo >= jHi {
		return
	}
	f := fc + float64(jLo)*d
	fl := math.Floor(f)
	c, fr := int(fl), f-fl
	for j := jLo; j < jHi; j++ {
		row[j] += src[c] + fr*(src[c+1]-src[c])
		fr += d
		if fr >= 1 {
			fr--
			c++
		} else if fr < 0 {
			fr++
			c--
		}
	}
}

// stepSpan conservatively bounds the index range [lo, hi) within [0, m)
// where fc + j·d stays strictly inside (0, lastColF), with at least
// stepEps clearance. The two-sample margin over the analytic crossing
// absorbs the reciprocal-multiply rounding, so every index returned is
// guaranteed interior; indices wrongly excluded just fall back to the
// exact predicate and cost a little speed, never correctness.
func stepSpan(fc, d, inv float64, m int, lastColF float64) (int, int) {
	const stepEps = 1e-9
	if d == 0 {
		if fc >= stepEps && fc <= lastColF-stepEps {
			return 0, m
		}
		return 0, 0
	}
	t0 := (stepEps - fc) * inv
	t1 := (lastColF - stepEps - fc) * inv
	if d < 0 {
		t0, t1 = t1, t0
	}
	// t0/t1 now bracket the admissible j interval from below/above.
	lo := 0
	if t0 > 0 {
		if t0 >= float64(m) {
			return 0, 0
		}
		lo = int(t0) + 2
	}
	hi := m
	if t1 < float64(m) {
		if t1 <= 0 {
			return 0, 0
		}
		hi = int(t1) - 1
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

func max4(a, b, c, d int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	if d > a {
		a = d
	}
	return a
}

func min4(a, b, c, d int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	if d < a {
		a = d
	}
	return a
}
