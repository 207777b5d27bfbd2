package tomo

import "math"

// FindCenter estimates the center-of-rotation offset (in detector pixels,
// relative to the geometric detector center) of a 0–180° sinogram. The
// projection at 180° is the mirror image of the projection at 0° about the
// rotation axis, so the offset is found by minimizing the sum of squared
// differences between row 0 and the flipped last row over candidate
// shifts, refined to sub-pixel precision with a parabolic fit — the same
// registration approach TomoPy's find_center_pc uses.
func FindCenter(s *Sinogram, maxShift int) float64 {
	if s.NAngles < 2 {
		return 0
	}
	p0 := s.Row(0)
	p180 := s.Row(s.NAngles - 1)
	n := s.NCols
	if maxShift <= 0 {
		maxShift = n / 4
	}
	if maxShift >= n/2 {
		maxShift = n/2 - 1
	}

	cost := func(shift int) float64 {
		// Mirroring about center + offset δ maps column c of p0 to
		// column c - 2δ of flipped(p180); integer shift approximates 2δ.
		var ss float64
		var cnt int
		for c := 0; c < n; c++ {
			j := c - shift
			if j < 0 || j >= n {
				continue
			}
			d := p0[c] - p180[n-1-j]
			ss += d * d
			cnt++
		}
		if cnt == 0 {
			return math.Inf(1)
		}
		return ss / float64(cnt)
	}
	// One sweep evaluates every shift once, one step past each end of the
	// candidate range so the minimum always has both neighbours: cm and cp
	// trail and lead the running best.
	best := 0
	bestCost := math.Inf(1)
	cm, cp := math.NaN(), math.NaN()
	prev := cost(-2*maxShift - 1)
	for shift := -2 * maxShift; shift <= 2*maxShift+1; shift++ {
		c := cost(shift)
		switch {
		case shift <= 2*maxShift && c < bestCost:
			best, bestCost, cm = shift, c, prev
		case shift == best+1:
			cp = c
		}
		prev = c
	}
	// Sub-pixel refinement: fit a parabola through the minimum and its
	// neighbors.
	delta := float64(best)
	den := cm - 2*bestCost + cp
	if den > 1e-12 && !math.IsInf(cm, 0) && !math.IsInf(cp, 0) {
		delta += 0.5 * (cm - cp) / den * -1
	}
	// The integer shift approximates 2× the COR offset.
	return delta / 2
}

// ShiftSinogram returns a copy of s with every row resampled by -shift
// detector pixels (linear interpolation, edge clamp), recentring a
// sinogram whose rotation axis is offset by shift pixels.
func ShiftSinogram(s *Sinogram, shift float64) *Sinogram {
	out := NewSinogram(s.Theta, s.NCols)
	ShiftSinogramInto(out, s, shift)
	return out
}

// ShiftSinogramInto is the allocation-free core of ShiftSinogram,
// resampling every row of s into dst (which must have matching
// dimensions).
//
//perf:hot
func ShiftSinogramInto(dst, s *Sinogram, shift float64) {
	for a := 0; a < s.NAngles; a++ {
		src := s.Row(a)
		d := dst.Row(a)
		for c := range d {
			d[c] = sampleShift(src, float64(c)+shift)
		}
	}
}
