package sched

import (
	"math"
	"testing"
)

// The sampler suite checks three things: agreement of empirical moments with
// the exact distribution (dist_pmf_test.go fits the whole pmf), edge-case/
// support correctness, and bit determinism — two
// identically-seeded streams must produce identical draw sequences, and
// every draw must consume at most one 64-bit uniform (the stream-budget
// contract checkpointing relies on).

func TestHypergeomMoments(t *testing.T) {
	cases := []struct{ N, K, n int64 }{
		{100, 30, 10},
		{1000, 500, 200},
		{1_000_000, 250_000, 10_000},
		{100_000_000, 50_000_000, 20_000}, // batch-scheduler operating scale
		{97, 13, 60},
	}
	for _, c := range cases {
		rng := NewBufStream(NewStream(7))
		var h HypSampler
		const draws = 20000
		var sum, sum2 float64
		for i := 0; i < draws; i++ {
			k := h.Draw(&rng, c.N, c.K, c.n)
			lo := c.n + c.K - c.N
			if lo < 0 {
				lo = 0
			}
			hi := c.n
			if c.K < hi {
				hi = c.K
			}
			if k < lo || k > hi {
				t.Fatalf("N=%d K=%d n=%d: draw %d outside support [%d,%d]", c.N, c.K, c.n, k, lo, hi)
			}
			sum += float64(k)
			sum2 += float64(k) * float64(k)
		}
		mean := sum / draws
		varr := sum2/draws - mean*mean
		wantMean := float64(c.n) * float64(c.K) / float64(c.N)
		wantVar := wantMean * (1 - float64(c.K)/float64(c.N)) * float64(c.N-c.n) / float64(c.N-1)
		// 6-sigma-ish tolerance on the ensemble mean, 10% on the variance.
		tolMean := 6 * math.Sqrt(wantVar/draws)
		if math.Abs(mean-wantMean) > tolMean+1e-9 {
			t.Errorf("N=%d K=%d n=%d: mean %.2f, want %.2f ± %.2f", c.N, c.K, c.n, mean, wantMean, tolMean)
		}
		if wantVar > 1 && math.Abs(varr-wantVar) > 0.1*wantVar {
			t.Errorf("N=%d K=%d n=%d: var %.2f, want %.2f ± 10%%", c.N, c.K, c.n, varr, wantVar)
		}
	}
}

func TestHypergeomEdges(t *testing.T) {
	rng := NewBufStream(NewStream(3))
	var h HypSampler
	before := rng.Snapshot()
	if k := h.Draw(&rng, 100, 0, 50); k != 0 {
		t.Fatalf("K=0 drew %d", k)
	}
	if k := h.Draw(&rng, 100, 100, 50); k != 50 {
		t.Fatalf("K=N drew %d", k)
	}
	if k := h.Draw(&rng, 100, 30, 0); k != 0 {
		t.Fatalf("n=0 drew %d", k)
	}
	if k := h.Draw(&rng, 100, 30, 100); k != 30 {
		t.Fatalf("n=N drew %d", k)
	}
	if got := rng.Snapshot(); got != before {
		t.Fatal("single-point-support draws consumed stream")
	}
}

func TestSplitCounts(t *testing.T) {
	counts := []int64{400, 100, 0, 300}
	sizes := []int64{200, 200, 200, 200}
	out := make([][]int64, 4)
	for i := range out {
		out[i] = make([]int64, len(counts))
	}
	rng := NewBufStream(NewStream(13))
	var h HypSampler
	perState := make([]int64, len(counts))
	const trials = 500
	firstMeans := make([]float64, len(counts))
	for trial := 0; trial < trials; trial++ {
		h.SplitCounts(&rng, counts, sizes, out)
		for i := range perState {
			perState[i] = 0
		}
		for w := range out {
			var tot int64
			for q, v := range out[w] {
				if v < 0 {
					t.Fatalf("slice %d state %d negative: %d", w, q, v)
				}
				perState[q] += v
				tot += v
			}
			if tot != sizes[w] {
				t.Fatalf("slice %d holds %d agents, want %d", w, tot, sizes[w])
			}
		}
		for q := range counts {
			if perState[q] != counts[q] {
				t.Fatalf("state %d: slices hold %d, want %d", q, perState[q], counts[q])
			}
		}
		for q := range counts {
			firstMeans[q] += float64(out[0][q])
		}
	}
	// Slice 0 should hold ~1/4 of each state's agents on average.
	for q, c := range counts {
		want := float64(c) / 4
		if want == 0 {
			continue
		}
		if got := firstMeans[q] / trials; math.Abs(got-want) > 0.06*float64(counts[q])+2 {
			t.Errorf("state %d: slice-0 mean %.1f, want %.1f", q, got, want)
		}
	}
}

// TestSamplerDeterminism pins bit-identical sequences per stream state: the
// cross-platform contract the batch checkpoints rely on.
func TestSamplerDeterminism(t *testing.T) {
	run := func() []int64 {
		rng := NewBufStream(NewStream(42))
		var h HypSampler
		var out []int64
		for i := 0; i < 200; i++ {
			out = append(out, h.Draw(&rng, 1_000_000, 333_333, 5000))
		}
		return out
	}
	a, bseq := run(), run()
	for i := range a {
		if a[i] != bseq[i] {
			t.Fatalf("draw %d diverged: %d vs %d", i, a[i], bseq[i])
		}
	}
}

// TestSamplerStreamBudget pins that a non-degenerate draw consumes exactly
// one 64-bit uniform — so the stream position after k draws is a pure
// function of k, which is what lets a resumed scheduler replay the sequence.
func TestSamplerStreamBudget(t *testing.T) {
	rng := NewBufStream(NewStream(17))
	var h HypSampler
	for i := 0; i < 50; i++ {
		before := rng.Snapshot()
		h.Draw(&rng, 10000, 3000, 500)
		after := rng.Snapshot()
		if diff := (after - before) / goldenGamma; diff != 1 {
			t.Fatalf("draw %d consumed %d uniforms, want 1", i, diff)
		}
	}
}
