package sched

import (
	"hash/fnv"
	"math"
	"testing"
)

// The pmf suite makes HypSampler's exactness a tested claim: χ² goodness of
// fit of Draw against the exact hypergeometric pmf (computed independently
// through math.Lgamma, which the sampler itself may not use) at the batch
// scheduler's operating scale, at skewed K, on supports clipped at lo/hi and
// exhaustively for every (N, K, n) with N ≤ 40. Core and tail-rejection
// paths are both exercised: at the operating scale ~17% of draws land in a
// tail majorant.

// hypPMF returns the exact pmf over the support [lo, hi].
func hypPMF(N, K, n int64) (lo, hi int64, p []float64) {
	lo, hi = n+K-N, n
	if lo < 0 {
		lo = 0
	}
	if K < hi {
		hi = K
	}
	lchoose := func(a, b int64) float64 {
		x, _ := math.Lgamma(float64(a + 1))
		y, _ := math.Lgamma(float64(b + 1))
		z, _ := math.Lgamma(float64(a - b + 1))
		return x - y - z
	}
	norm := lchoose(N, n)
	p = make([]float64, hi-lo+1)
	for k := lo; k <= hi; k++ {
		p[k-lo] = math.Exp(lchoose(K, k) + lchoose(N-K, n-k) - norm)
	}
	return lo, hi, p
}

// chi2 bins observed counts against expected ones (pmf × draws), merging
// adjacent support points — and both far tails — until every bin expects at
// least 5 draws. It returns the statistic and its degrees of freedom.
func chi2(obs []int64, pmf []float64, draws int) (stat float64, dof int) {
	type bin struct{ o, e float64 }
	var bins []bin
	var cur bin
	for i := range pmf {
		cur.o += float64(obs[i])
		cur.e += pmf[i] * float64(draws)
		if cur.e >= 5 {
			bins = append(bins, cur)
			cur = bin{}
		}
	}
	switch {
	case len(bins) == 0:
		bins = append(bins, cur)
	case cur.e > 0 || cur.o > 0:
		// Fold the short last bin into the previous one.
		bins[len(bins)-1].o += cur.o
		bins[len(bins)-1].e += cur.e
	}
	for _, b := range bins {
		stat += (b.o - b.e) * (b.o - b.e) / b.e
	}
	return stat, len(bins) - 1
}

// chi2Z is the Wilson–Hilferty normal deviate of a χ² statistic with dof
// degrees of freedom: large positive values mean a poor fit.
func chi2Z(stat float64, dof int) float64 {
	if dof <= 0 {
		return 0
	}
	k := float64(dof)
	return (math.Cbrt(stat/k) - (1 - 2/(9*k))) / math.Sqrt(2/(9*k))
}

// drawHist histograms draws samples over the support [lo, hi], failing on
// any draw outside it, and returns them beside the exact pmf.
func drawHist(t *testing.T, h *HypSampler, rng *BufStream, N, K, n int64, draws int) (obs []int64, pmf []float64) {
	t.Helper()
	lo, hi, pmf := hypPMF(N, K, n)
	obs = make([]int64, hi-lo+1)
	for i := 0; i < draws; i++ {
		k := h.Draw(rng, N, K, n)
		if k < lo || k > hi {
			t.Fatalf("N=%d K=%d n=%d: draw %d outside support [%d,%d]", N, K, n, k, lo, hi)
		}
		obs[k-lo]++
	}
	return obs, pmf
}

func TestHypergeomPMFChi2(t *testing.T) {
	cases := []struct {
		name    string
		N, K, n int64
		draws   int
	}{
		{"operating-scale", 100_000_000, 55_000_000, 12_600, 100_000},
		{"operating-scale-balanced", 100_000_000, 50_000_000, 12_600, 100_000},
		{"scale-2^20", 1 << 20, 576_716, 1_300, 100_000},
		{"skewed-K-small", 100_000_000, 20_000, 12_600, 100_000},
		{"skewed-K-tiny", 100_000_000, 300, 12_600, 100_000},
		{"skewed-K-large", 100_000_000, 99_990_000, 12_600, 100_000},
		{"clipped-hi", 1000, 990, 500, 100_000},
		{"clipped-lo", 1000, 10, 500, 100_000},
		{"clipped-both", 200, 150, 160, 100_000},
		{"n-near-N", 1_000_000, 400_000, 999_000, 100_000},
		{"wide", 10_000_000, 5_000_000, 4_000_000, 20_000},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := NewBufStream(NewStream(101))
			var h HypSampler
			obs, pmf := drawHist(t, &h, &rng, c.N, c.K, c.n, c.draws)
			stat, dof := chi2(obs, pmf, c.draws)
			if z := chi2Z(stat, dof); z > 5 {
				t.Errorf("χ²=%.1f on %d dof (z=%.2f): draws do not follow the pmf", stat, dof, z)
			}
		})
	}
}

// TestHypergeomPMFExhaustive sweeps every non-degenerate (N, K, n) with
// N ≤ 40: each shape must fit on its own (z ≤ 6, a per-shape false-alarm
// rate of ~10⁻⁹), and the pooled statistic over all shapes — a far more
// sensitive test of small systematic bias — must fit too.
func TestHypergeomPMFExhaustive(t *testing.T) {
	const draws = 1000
	rng := NewBufStream(NewStream(202))
	var h HypSampler
	var pooled float64
	var pooledDOF int
	for N := int64(2); N <= 40; N++ {
		for K := int64(1); K < N; K++ {
			for n := int64(1); n < N; n++ {
				obs, pmf := drawHist(t, &h, &rng, N, K, n, draws)
				stat, dof := chi2(obs, pmf, draws)
				if dof == 0 {
					continue
				}
				if z := chi2Z(stat, dof); z > 6 {
					t.Errorf("N=%d K=%d n=%d: χ²=%.1f on %d dof (z=%.2f)", N, K, n, stat, dof, z)
				}
				pooled += stat
				pooledDOF += dof
			}
		}
	}
	if z := chi2Z(pooled, pooledDOF); z > 5 {
		t.Errorf("pooled χ²=%.0f on %d dof (z=%.2f)", pooled, pooledDOF, z)
	}
}

// TestHypergeomDigest pins a digest of a fixed draw sequence — core and tail
// landings, rejections, clipped and degenerate supports — and the main
// stream's final position. Any change to the draw stream (construction,
// envelope layout, side-stream use) must update this pin deliberately: batch
// trajectories are a pure function of it.
func TestHypergeomDigest(t *testing.T) {
	shapes := []struct{ N, K, n int64 }{
		{100_000_000, 55_000_000, 12_600},
		{1 << 20, 576_716, 1_300},
		{100_000_000, 300, 12_600},
		{1000, 990, 500},
		{40, 17, 23},
		{100, 0, 50},
		{10_000_000, 5_000_000, 4_000_000},
	}
	rng := NewBufStream(NewStream(2024))
	var h HypSampler
	d := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 2000; i++ {
		s := shapes[i%len(shapes)]
		k := uint64(h.Draw(&rng, s.N, s.K, s.n))
		for j := range buf {
			buf[j] = byte(k >> (8 * j))
		}
		d.Write(buf[:])
	}
	const wantDigest, wantState = uint64(0xfec4cbc745740c8), uint64(0x8d12059cb88c2d84)
	if got, st := d.Sum64(), rng.Snapshot(); got != wantDigest || st != wantState {
		t.Fatalf("draw digest %#x, stream state %#x; pinned %#x, %#x", got, st, wantDigest, wantState)
	}
}
