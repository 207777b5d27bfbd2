// Package vol defines the dense image and volume containers shared by the
// phantom generators, the reconstruction kernels, the multiscale store, and
// the access layer. Images are row-major float64 grids; volumes are stacks
// of equally-sized slices, matching the slice-parallel decomposition used
// by the reconstruction worker pool.
package vol

import (
	"fmt"
	"math"
)

// Image is a dense 2D row-major grid of float64 samples.
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage allocates a zeroed W×H image.
func NewImage(w, h int) *Image {
	if w < 0 || h < 0 {
		panic("vol: negative image dimensions")
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the sample at (x, y). Out-of-range access panics via the
// underlying slice.
func (im *Image) At(x, y int) float64 { return im.Pix[y*im.W+x] }

// Set stores v at (x, y).
func (im *Image) Set(x, y int, v float64) { im.Pix[y*im.W+x] = v }

// Fill sets every sample to v.
func (im *Image) Fill(v float64) {
	for i := range im.Pix {
		im.Pix[i] = v
	}
}

// MinMax returns the minimum and maximum sample values. An empty image
// returns (0, 0).
func (im *Image) MinMax() (lo, hi float64) {
	if len(im.Pix) == 0 {
		return 0, 0
	}
	lo, hi = im.Pix[0], im.Pix[0]
	for _, v := range im.Pix {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Mean returns the mean sample value, or 0 for an empty image.
func (im *Image) Mean() float64 {
	if len(im.Pix) == 0 {
		return 0
	}
	var s float64
	for _, v := range im.Pix {
		s += v
	}
	return s / float64(len(im.Pix))
}

// Bilinear samples the image at continuous coordinates with bilinear
// interpolation, clamping to the border.
func (im *Image) Bilinear(x, y float64) float64 {
	if im.W == 0 || im.H == 0 {
		return 0
	}
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	maxX := float64(im.W - 1)
	maxY := float64(im.H - 1)
	if x > maxX {
		x = maxX
	}
	if y > maxY {
		y = maxY
	}
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	x1, y1 := x0+1, y0+1
	if x1 >= im.W {
		x1 = im.W - 1
	}
	if y1 >= im.H {
		y1 = im.H - 1
	}
	fx := x - float64(x0)
	fy := y - float64(y0)
	v00 := im.At(x0, y0)
	v10 := im.At(x1, y0)
	v01 := im.At(x0, y1)
	v11 := im.At(x1, y1)
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// Volume is a dense stack of D slices, each W×H, stored slice-major.
type Volume struct {
	W, H, D int
	Data    []float64
}

// NewVolume allocates a zeroed W×H×D volume.
func NewVolume(w, h, d int) *Volume {
	if w < 0 || h < 0 || d < 0 {
		panic("vol: negative volume dimensions")
	}
	return &Volume{W: w, H: h, D: d, Data: make([]float64, w*h*d)}
}

// At returns the voxel at (x, y, z).
func (v *Volume) At(x, y, z int) float64 { return v.Data[(z*v.H+y)*v.W+x] }

// Set stores val at (x, y, z).
func (v *Volume) Set(x, y, z int, val float64) { v.Data[(z*v.H+y)*v.W+x] = val }

// Slice returns slice z as an Image aliasing the volume storage.
func (v *Volume) Slice(z int) *Image {
	if z < 0 || z >= v.D {
		panic(fmt.Sprintf("vol: slice %d out of range [0,%d)", z, v.D))
	}
	return &Image{W: v.W, H: v.H, Pix: v.Data[z*v.W*v.H : (z+1)*v.W*v.H]}
}

// SetSlice copies im into slice z. Dimensions must match.
func (v *Volume) SetSlice(z int, im *Image) {
	if im.W != v.W || im.H != v.H {
		panic("vol: SetSlice dimension mismatch")
	}
	copy(v.Data[z*v.W*v.H:(z+1)*v.W*v.H], im.Pix)
}

// Downsample2 box-averages the volume by 2 in every axis, producing the
// next level of a multiscale pyramid.
func (v *Volume) Downsample2() *Volume {
	w := (v.W + 1) / 2
	h := (v.H + 1) / 2
	d := (v.D + 1) / 2
	out := NewVolume(w, h, d)
	for oz := 0; oz < d; oz++ {
		for oy := 0; oy < h; oy++ {
			for ox := 0; ox < w; ox++ {
				var sum float64
				var n int
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							x, y, z := ox*2+dx, oy*2+dy, oz*2+dz
							if x < v.W && y < v.H && z < v.D {
								sum += v.At(x, y, z)
								n++
							}
						}
					}
				}
				out.Set(ox, oy, oz, sum/float64(n))
			}
		}
	}
	return out
}

// FractionAbove returns the fraction of voxels with value ≥ t — the
// porosity/solid-fraction metric used in the case studies.
func (v *Volume) FractionAbove(t float64) float64 {
	if len(v.Data) == 0 {
		return 0
	}
	n := 0
	for _, x := range v.Data {
		if x >= t {
			n++
		}
	}
	return float64(n) / float64(len(v.Data))
}
