package tomo

// BinSinogram downsamples a sinogram by factor k in the detector axis
// (averaging k adjacent columns), the standard binning preprocessing that
// trades resolution for speed and dose statistics. NCols must not be
// required to divide evenly; a ragged tail column is averaged over the
// remaining samples.
func BinSinogram(s *Sinogram, k int) *Sinogram {
	if k <= 1 {
		return s.Clone()
	}
	ncols := (s.NCols + k - 1) / k
	out := NewSinogram(s.Theta, ncols)
	for a := 0; a < s.NAngles; a++ {
		src := s.Row(a)
		dst := out.Row(a)
		for c := 0; c < ncols; c++ {
			lo := c * k
			hi := lo + k
			if hi > s.NCols {
				hi = s.NCols
			}
			var sum float64
			for i := lo; i < hi; i++ {
				sum += src[i]
			}
			dst[c] = sum / float64(hi-lo)
		}
	}
	return out
}

// BinProjections bins a projection set by factor k in both detector axes
// (rows and columns), averaging k×k blocks — the fast-preview decimation
// the streaming service can apply before reconstruction when the latency
// budget is tight.
func BinProjections(ps *ProjectionSet, k int) *ProjectionSet {
	if k <= 1 {
		cp := NewProjectionSet(ps.Theta, ps.NRows, ps.NCols)
		copy(cp.Data, ps.Data)
		return cp
	}
	rows := (ps.NRows + k - 1) / k
	cols := (ps.NCols + k - 1) / k
	out := NewProjectionSet(ps.Theta, rows, cols)
	for a := 0; a < ps.NAngles; a++ {
		src := ps.Projection(a)
		dst := out.Projection(a)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				var sum float64
				var n int
				for dr := 0; dr < k; dr++ {
					sr := r*k + dr
					if sr >= ps.NRows {
						break
					}
					for dc := 0; dc < k; dc++ {
						sc := c*k + dc
						if sc >= ps.NCols {
							break
						}
						sum += src[sr*ps.NCols+sc]
						n++
					}
				}
				dst[r*cols+c] = sum / float64(n)
			}
		}
	}
	return out
}

// CropSinogram restricts a sinogram to detector columns [lo, hi) — the
// "cropped test scan" mode that produces the few-MB files in the paper's
// size mix.
func CropSinogram(s *Sinogram, lo, hi int) *Sinogram {
	if lo < 0 {
		lo = 0
	}
	if hi > s.NCols {
		hi = s.NCols
	}
	if hi <= lo {
		return NewSinogram(s.Theta, 0)
	}
	out := NewSinogram(s.Theta, hi-lo)
	for a := 0; a < s.NAngles; a++ {
		copy(out.Row(a), s.Row(a)[lo:hi])
	}
	return out
}
