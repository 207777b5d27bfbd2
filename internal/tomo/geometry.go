// Package tomo implements the tomographic compute kernels used by both
// workflow branches of the paper: the quick single-pass filtered back
// projection the streaming service runs on acquisition completion
// (streamtomocupy's role), and the preprocessed, optionally iterative
// reconstructions the file-based TomoPy jobs run at NERSC and ALCF.
//
// Geometry convention: parallel-beam CT. The object lives on the unit
// square [-1,1]²; a projection at angle θ integrates along rays
// perpendicular to the detector axis s, where s = x·cosθ + y·sinθ.
// Detector columns sample s ∈ [-1,1] at pixel centers.
package tomo

import (
	"fmt"
	"math"
)

// Sinogram holds the projections of a single object slice: NAngles rows of
// NCols detector samples, row-major, with Theta[a] the acquisition angle of
// row a in radians.
type Sinogram struct {
	NAngles int
	NCols   int
	Theta   []float64
	Data    []float64
}

// NewSinogram allocates a zeroed sinogram with the given uniform angle set.
func NewSinogram(theta []float64, ncols int) *Sinogram {
	return &Sinogram{
		NAngles: len(theta),
		NCols:   ncols,
		Theta:   theta,
		Data:    make([]float64, len(theta)*ncols),
	}
}

// Row returns projection a as a slice aliasing the sinogram storage.
func (s *Sinogram) Row(a int) []float64 {
	return s.Data[a*s.NCols : (a+1)*s.NCols]
}

// Clone returns a deep copy of the sinogram (sharing Theta, which is
// treated as immutable).
func (s *Sinogram) Clone() *Sinogram {
	c := NewSinogram(s.Theta, s.NCols)
	copy(c.Data, s.Data)
	return c
}

// Validate checks structural consistency.
func (s *Sinogram) Validate() error {
	if len(s.Theta) != s.NAngles {
		return fmt.Errorf("tomo: theta length %d != NAngles %d", len(s.Theta), s.NAngles)
	}
	if len(s.Data) != s.NAngles*s.NCols {
		return fmt.Errorf("tomo: data length %d != %d×%d", len(s.Data), s.NAngles, s.NCols)
	}
	return nil
}

// UniformAngles returns n angles evenly covering [0, π) — the 180° scan
// the beamline acquires.
func UniformAngles(n int) []float64 {
	th := make([]float64, n)
	for i := range th {
		th[i] = math.Pi * float64(i) / float64(n)
	}
	return th
}

// ProjectionSet is a full acquisition: NAngles projection images of
// NRows × NCols, stored angle-major ([angle][row][col]). Row r across all
// angles forms the sinogram of object slice r.
type ProjectionSet struct {
	NAngles int
	NRows   int
	NCols   int
	Theta   []float64
	Data    []float64
}

// NewProjectionSet allocates a zeroed projection set.
func NewProjectionSet(theta []float64, nrows, ncols int) *ProjectionSet {
	return &ProjectionSet{
		NAngles: len(theta),
		NRows:   nrows,
		NCols:   ncols,
		Theta:   theta,
		Data:    make([]float64, len(theta)*nrows*ncols),
	}
}

// At returns the sample for angle a, detector row r, column c.
func (p *ProjectionSet) At(a, r, c int) float64 {
	return p.Data[(a*p.NRows+r)*p.NCols+c]
}

// Set stores v at (a, r, c).
func (p *ProjectionSet) Set(a, r, c int, v float64) {
	p.Data[(a*p.NRows+r)*p.NCols+c] = v
}

// Projection returns the projection image at angle index a, aliasing
// storage, as a row-major NRows×NCols slice.
func (p *ProjectionSet) Projection(a int) []float64 {
	n := p.NRows * p.NCols
	return p.Data[a*n : (a+1)*n]
}

// SinogramForRow extracts the sinogram of object slice r (copying, since
// the angle-major layout is not contiguous per row).
func (p *ProjectionSet) SinogramForRow(r int) *Sinogram {
	s := NewSinogram(p.Theta, p.NCols)
	p.SinogramForRowInto(s, r)
	return s
}

// SinogramForRowInto copies the sinogram of object slice r into dst,
// which must have matching NAngles and NCols (e.g. a plan scratch's
// staging sinogram). Allocation-free.
func (p *ProjectionSet) SinogramForRowInto(dst *Sinogram, r int) {
	for a := 0; a < p.NAngles; a++ {
		base := (a*p.NRows + r) * p.NCols
		copy(dst.Row(a), p.Data[base:base+p.NCols])
	}
}

// Validate checks structural consistency.
func (p *ProjectionSet) Validate() error {
	if len(p.Theta) != p.NAngles {
		return fmt.Errorf("tomo: theta length %d != NAngles %d", len(p.Theta), p.NAngles)
	}
	if len(p.Data) != p.NAngles*p.NRows*p.NCols {
		return fmt.Errorf("tomo: data length %d != %d×%d×%d",
			len(p.Data), p.NAngles, p.NRows, p.NCols)
	}
	return nil
}

// SizeBytes returns the in-memory footprint of the raw data in bytes,
// assuming the detector's native 16-bit samples (as in the paper's ~20 GB
// for 1969 × 2160 × 2560 × u16 figure).
func (p *ProjectionSet) SizeBytes() int64 {
	return int64(p.NAngles) * int64(p.NRows) * int64(p.NCols) * 2
}
