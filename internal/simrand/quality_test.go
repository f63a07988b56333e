package simrand

import (
	"math"
	"testing"
)

// These tests document what a Source and Derive promise statistically, on
// fixed seeds so they are deterministic: draws are uniform, and sibling
// streams derived from one parent with different labels are uncorrelated.
// The bounds sit at the 0.1% tail of each statistic's null distribution,
// so a sound stream passes them with wide margin, while a broken mixer (a
// constant, a short cycle, a label that only shifts the parent stream)
// fails them by orders of magnitude.

// chiSquare returns Pearson's statistic for counts against a uniform
// expectation.
func chiSquare(counts []int, total int) float64 {
	want := float64(total) / float64(len(counts))
	stat := 0.0
	for _, c := range counts {
		d := float64(c) - want
		stat += d * d / want
	}
	return stat
}

// chiSquareBound is the 0.999 quantile of a chi-square distribution with
// dof degrees of freedom, by the Wilson–Hilferty approximation (accurate
// to a few percent for dof ≥ 2).
func chiSquareBound(dof int) float64 {
	const z = 3.090 // standard normal 0.999 quantile
	k := float64(dof)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

func TestFloat64DecilesChiSquare(t *testing.T) {
	const draws = 200000
	for _, seed := range []uint64{1, 42, 1 << 40} {
		src := New(seed)
		counts := make([]int, 10)
		for i := 0; i < draws; i++ {
			counts[int(src.Float64()*10)]++
		}
		if stat, bound := chiSquare(counts, draws), chiSquareBound(9); stat > bound {
			t.Errorf("seed %d: Float64 decile chi-square %.2f exceeds %.2f (counts %v)", seed, stat, bound, counts)
		}
	}
}

func TestIntnChiSquare(t *testing.T) {
	for _, n := range []int{3, 9, 27, 80} {
		draws := 2000 * n
		src := New(uint64(7 * n)).Derive(3)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[src.Intn(n)]++
		}
		if stat, bound := chiSquare(counts, draws), chiSquareBound(n-1); stat > bound {
			t.Errorf("Intn(%d): chi-square %.2f exceeds %.2f", n, stat, bound)
		}
	}
}

// TestSiblingDeriveUncorrelated: for every pair of sibling labels, the
// Pearson correlation of the two streams' Float64 draws stays within the
// 0.1% two-sided tail for independent streams (|r| ≤ 3.29/√n), and so does
// the correlation of one stream with the other shifted by one draw.
func TestSiblingDeriveUncorrelated(t *testing.T) {
	const draws = 50000
	parent := New(2026)
	labels := []uint64{0, 1, 2, 3, 64, 1 << 32}
	streams := make([][]float64, len(labels))
	for i, label := range labels {
		src := parent.Derive(label)
		streams[i] = make([]float64, draws+1)
		for k := range streams[i] {
			streams[i][k] = src.Float64()
		}
	}
	bound := 3.29 / math.Sqrt(draws)
	for i := range streams {
		for j := range streams {
			if i == j {
				continue
			}
			if r := correlation(streams[i][:draws], streams[j][:draws]); i < j && math.Abs(r) > bound {
				t.Errorf("labels %d and %d: correlation %.4f exceeds %.4f", labels[i], labels[j], r, bound)
			}
			if r := correlation(streams[i][:draws], streams[j][1:]); math.Abs(r) > bound {
				t.Errorf("labels %d and %d (lag 1): correlation %.4f exceeds %.4f", labels[i], labels[j], r, bound)
			}
		}
	}
}

func correlation(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for k := range x {
		sx += x[k]
		sy += y[k]
		sxx += x[k] * x[k]
		syy += y[k] * y[k]
		sxy += x[k] * y[k]
	}
	cov := sxy - sx*sy/n
	return cov / math.Sqrt((sxx-sx*sx/n)*(syy-sy*sy/n))
}
