package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"stormtune/internal/gp"
	"stormtune/internal/linalg"
)

// The Bayesian optimizer's defaults the CLI runs with (bo.Options
// zero values): a Matérn-5/2 kernel at length 0.3, noise 1e-3, 1000
// candidates per ask, 6 hyperparameter samples after 1 burn-in sweep.
const (
	kernelLength = 0.3
	noiseVar     = 1e-3
	candidates   = 1000
	hyperSamples = 6
	hyperBurn    = 1
)

// microStats are the GP and linear-algebra costs at the session's
// training-set shape.
type microStats struct {
	fitMs, sliceMs, predictUs, cholMs, extendUs float64
}

// microReps repeats each timed call and keeps the median.
const microReps = 5

func medianOf(reps int, f func() (time.Duration, error)) (float64, error) {
	ds := make([]float64, reps)
	for i := range ds {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds[i] = d.Seconds()
	}
	return quantile(ds, 0.5), nil
}

// micro times the GP's Fit, SliceSampleHypers and PredictInto on n
// points in d dimensions, and a Cholesky factor of the n×n Gram plus
// one Extend to n+1. The points are uniform in the unit cube, where the
// optimizer's encoded candidates live, with a smooth response.
func micro(n, d int, seed int64) (microStats, error) {
	rng := rand.New(rand.NewSource(seed))
	point := func() []float64 {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		return x
	}
	xs := make([][]float64, n+1)
	ys := make([]float64, n+1)
	for i := range xs {
		xs[i] = point()
		for j, v := range xs[i] {
			ys[i] += math.Sin(3*v+float64(j)) / float64(d)
		}
	}
	train, trainY := xs[:n], ys[:n]
	var s microStats
	g := gp.New(gp.NewMatern52(d, kernelLength), noiseVar)
	fit, err := medianOf(microReps, func() (time.Duration, error) {
		start := time.Now()
		err := g.Fit(train, trainY)
		return time.Since(start), err
	})
	if err != nil {
		return s, fmt.Errorf("gp fit: %w", err)
	}
	s.fitMs = 1e3 * fit
	start := time.Now()
	g.SliceSampleHypers(rng, hyperSamples, hyperBurn)
	s.sliceMs = 1e3 * time.Since(start).Seconds()

	cands := make([][]float64, candidates)
	for i := range cands {
		cands[i] = point()
	}
	var scratch gp.Scratch
	predict, _ := medianOf(microReps, func() (time.Duration, error) {
		start := time.Now()
		for _, c := range cands {
			g.PredictInto(&scratch, c)
		}
		return time.Since(start), nil
	})
	s.predictUs = 1e6 / candidates * predict

	k := gp.NewMatern52(d, kernelLength)
	gram := linalg.NewMatrix(n+1, n+1)
	for i := range xs {
		for j := range xs {
			v := k.Eval(xs[i], xs[j])
			if i == j {
				v += noiseVar
			}
			gram.Set(i, j, v)
		}
	}
	head := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			head.Set(i, j, gram.At(i, j))
		}
	}
	chol, err := medianOf(microReps, func() (time.Duration, error) {
		start := time.Now()
		_, err := linalg.NewCholesky(head)
		return time.Since(start), err
	})
	if err != nil {
		return s, fmt.Errorf("cholesky: %w", err)
	}
	s.cholMs = 1e3 * chol
	row := make([]float64, n)
	for j := range row {
		row[j] = gram.At(n, j)
	}
	extend, err := medianOf(microReps, func() (time.Duration, error) {
		c, err := linalg.NewCholesky(head)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		err = c.Extend(row, gram.At(n, n))
		return time.Since(start), err
	})
	if err != nil {
		return s, fmt.Errorf("cholesky extend: %w", err)
	}
	s.extendUs = 1e6 * extend
	return s, nil
}
