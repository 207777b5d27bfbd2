package tomo

import (
	"math"
	"math/rand"

	"repro/internal/vol"
)

// AcquireOptions models the detector physics the beamline's acquisition
// layer produces: photon statistics, per-column gain variation (the source
// of ring artifacts), dark current, zingers, and a center-of-rotation
// offset.
type AcquireOptions struct {
	I0            float64 // incident photon count per pixel (e.g. 1e4)
	GainVariation float64 // per-column multiplicative gain sigma (rings)
	DarkLevel     float64 // additive dark-current counts
	ZingerProb    float64 // probability a sample is hit by a zinger
	ZingerScale   float64 // zinger amplitude in units of I0
	CORShift      float64 // center-of-rotation offset in detector pixels
	Seed          int64
}

// Acquisition is a simulated raw scan: transmission counts plus the flat
// and dark reference frames the file-writer stores alongside the data
// (DXchange's data_white / data_dark).
type Acquisition struct {
	Raw   *ProjectionSet // detector counts
	Flat  []float64      // per-pixel flat-field counts (NRows×NCols)
	Dark  []float64      // per-pixel dark counts
	Truth *vol.Volume    // ground-truth object (for quality metrics)
}

// Acquire simulates scanning a volume: forward projects each slice, applies
// Beer-Lambert attenuation with the detector model, and captures flat/dark
// references with the same per-column gains.
func Acquire(truth *vol.Volume, theta []float64, ncols int, opts AcquireOptions) *Acquisition {
	rng := rand.New(rand.NewSource(opts.Seed))
	clean := ProjectVolume(truth, theta, ncols)

	// Per-column gain (constant over the scan → rings).
	gain := make([]float64, ncols)
	for c := range gain {
		gain[c] = 1 + opts.GainVariation*rng.NormFloat64()
		if gain[c] < 0.1 {
			gain[c] = 0.1
		}
	}

	raw := NewProjectionSet(theta, clean.NRows, clean.NCols)
	for a := 0; a < clean.NAngles; a++ {
		for r := 0; r < clean.NRows; r++ {
			base := (a*clean.NRows + r) * clean.NCols
			for c := 0; c < clean.NCols; c++ {
				// COR shift: sample the clean projection at a
				// shifted column (linear interpolation).
				src := float64(c) - opts.CORShift
				line := sampleShift(clean.Data[base:base+clean.NCols], src)
				mean := opts.I0 * gain[c] * math.Exp(-line)
				// Poisson noise approximated as Gaussian with
				// variance = mean (valid for mean >> 1).
				counts := mean + math.Sqrt(math.Max(mean, 1))*rng.NormFloat64() + opts.DarkLevel
				if opts.ZingerProb > 0 && rng.Float64() < opts.ZingerProb {
					counts += opts.I0 * opts.ZingerScale
				}
				if counts < 0 {
					counts = 0
				}
				raw.Data[base+c] = counts
			}
		}
	}

	npix := clean.NRows * clean.NCols
	flat := make([]float64, npix)
	dark := make([]float64, npix)
	for r := 0; r < clean.NRows; r++ {
		for c := 0; c < clean.NCols; c++ {
			i := r*clean.NCols + c
			mean := opts.I0 * gain[c]
			flat[i] = mean + math.Sqrt(mean)*rng.NormFloat64() + opts.DarkLevel
			dark[i] = opts.DarkLevel + rng.NormFloat64()
		}
	}
	return &Acquisition{Raw: raw, Flat: flat, Dark: dark, Truth: truth}
}

// sampleShift linearly interpolates row at fractional index x, clamping to
// the borders.
func sampleShift(row []float64, x float64) float64 {
	if x <= 0 {
		return row[0]
	}
	if x >= float64(len(row)-1) {
		return row[len(row)-1]
	}
	i := int(x)
	f := x - float64(i)
	return row[i]*(1-f) + row[i+1]*f
}
