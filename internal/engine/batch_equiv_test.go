package engine_test

import (
	"fmt"
	"sort"
	"testing"

	"popsim/internal/engine"
	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/protocols"
	"popsim/internal/sim"
)

// The batch-mode suite: statistical equivalence of the collision-aware
// aggregate dynamics against the exact and block samplers (the χ² and
// ensemble comparisons CI runs under the race detector — test names keep the
// TestCountEquivalence prefix the race job selects on), plus the batch-mode
// determinism contracts: byte-identical execution under any call chunking
// (aggregate vs expanded application), exact hitting steps through the
// rewind-and-replay path, and checkpoint/resume at run boundaries.

// ceqOutCount sums the agents whose majority output is "A" — the scalar
// observable the distributional comparisons bin.
func ceqOutCount(maj protocols.Majority, ce *engine.CountEngine) float64 {
	var a int64
	in := ce.Interner()
	for id, cnt := range ce.Counts() {
		if cnt > 0 && maj.Output(in.State(uint32(id))) == "A" {
			a += cnt
		}
	}
	return float64(a)
}

// ceqChi2 computes the two-sample χ² statistic between equal-sized samples
// over equal-frequency bins of the pooled data (duplicate edges collapse, so
// discrete observables just get fewer cells; cells thinner than 8 pooled
// observations are skipped).
func ceqChi2(xs, ys []float64) (float64, int) {
	all := append(append([]float64(nil), xs...), ys...)
	sort.Float64s(all)
	const bins = 8
	var edges []float64
	for i := 1; i < bins; i++ {
		e := all[i*len(all)/bins]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	cell := func(v float64) int {
		c := 0
		for _, e := range edges {
			if v >= e {
				c++
			}
		}
		return c
	}
	na := make([]float64, len(edges)+1)
	nb := make([]float64, len(edges)+1)
	for _, v := range xs {
		na[cell(v)]++
	}
	for _, v := range ys {
		nb[cell(v)]++
	}
	var chi2 float64
	cells := 0
	for i := range na {
		s := na[i] + nb[i]
		if s < 8 {
			continue
		}
		d := na[i] - nb[i]
		chi2 += d * d / s
		cells++
	}
	return chi2, cells
}

// TestCountEquivalenceBatchProtocols compares batch dynamics against the
// exact per-pair sampler (the distribution-exact reference) for every
// protocol × interaction model: mean final counts over the seed ensemble and
// convergence-step ratios, with the block suite's tolerances. BatchOn forces
// the aggregate machinery at a population where every run is short and the
// collision resolution fires constantly — the adversarial regime for the
// correction, not the comfortable √n one.
//
// The final counts of these workloads are bimodal across seeds, so a
// difference of two 8-seed means has σ ≈ 32 agents against the 0.2·n = 25.6
// tolerance: any change to the draw stream would flip the verdict at random.
// The final-count arm therefore averages ceqFinalSeeds runs per sampler,
// which puts the tolerance at ≥ 4σ of the difference; the costlier
// convergence-step arm keeps the first ceqSeeds seeds.
func TestCountEquivalenceBatchProtocols(t *testing.T) {
	const ceqFinalSeeds = 200
	fixedT := 60 * ceqN
	for _, w := range ceqWorkloads() {
		for _, kind := range model.Kinds() {
			w, kind := w, kind
			t.Run(fmt.Sprintf("%s/%v", w.name, kind), func(t *testing.T) {
				t.Parallel()
				var protocol any = w.proto
				if kind.OneWay() {
					protocol = pp.OneWayAdapter{P: w.proto}
				}
				checkConv := !kind.OneWay() || w.oneWayDone

				run := func(opts engine.CountOptions) (map[string]float64, []float64) {
					counts := map[string]float64{}
					var hits []float64
					for seed := int64(1); seed <= ceqFinalSeeds; seed++ {
						ce, err := engine.NewCountEngine(kind, protocol, w.cfg(ceqN), seed, opts)
						if err != nil {
							t.Fatal(err)
						}
						if err := ce.RunSteps(fixedT); err != nil {
							t.Fatal(err)
						}
						ceqAddCounts(counts, ce.Config())
						if checkConv && seed <= ceqSeeds {
							ce2, err := engine.NewCountEngine(kind, protocol, w.cfg(ceqN), seed, opts)
							if err != nil {
								t.Fatal(err)
							}
							done := w.done(ceqN)
							in := ce2.Interner()
							hit, ok, err := ce2.RunUntil(func(c pp.Counts) bool {
								return done(in.MaterializeCounts(c, nil))
							}, 64, 5_000_000)
							if err != nil || !ok {
								t.Fatalf("seed %d did not converge: ok=%v err=%v", seed, ok, err)
							}
							hits = append(hits, float64(hit))
						}
					}
					for k := range counts {
						counts[k] /= ceqFinalSeeds
					}
					return counts, hits
				}

				refCounts, refHits := run(engine.CountOptions{BlockLen: 1})
				batCounts, batHits := run(engine.CountOptions{Batch: engine.BatchOn})

				tol := 0.2 * ceqN
				keys := map[string]bool{}
				for k := range refCounts {
					keys[k] = true
				}
				for k := range batCounts {
					keys[k] = true
				}
				for k := range keys {
					if d := batCounts[k] - refCounts[k]; d > tol || d < -tol {
						t.Errorf("mean final count of %q diverged: exact %.1f, batch %.1f (tol %.1f)",
							k, refCounts[k], batCounts[k], tol)
					}
				}
				if checkConv {
					mr, mb := ceqMean(refHits), ceqMean(batHits)
					if ratio := mb / mr; ratio < 0.4 || ratio > 2.5 {
						t.Errorf("mean convergence steps diverged: exact %.0f, batch %.0f (ratio %.2f)", mr, mb, ratio)
					}
				}
			})
		}
	}
}

// TestCountEquivalenceBatchChi2 is the joint-distribution check: the full
// distribution of a transient observable (majority "A"-output agents after a
// fixed sub-convergence budget — where the ensemble has real spread, unlike
// the concentrated converged finals) must match between batch and the exact
// sampler under a two-sample χ² over 256 seeds per arm. Structural sampler
// bugs shift this statistic by orders of magnitude; the threshold leaves ~50%
// headroom over the χ²₀.₉₉₉ quantile at the maximal cell count.
func TestCountEquivalenceBatchChi2(t *testing.T) {
	const n = 64
	const seeds = 256
	maj := protocols.Majority{}
	cfg := func() pp.Configuration { return protocols.MajorityConfig(n/2+4, n/2-4) }
	sample := func(opts engine.CountOptions, seed0 int64) []float64 {
		out := make([]float64, 0, seeds)
		for s := int64(0); s < seeds; s++ {
			ce, err := engine.NewCountEngine(model.TW, maj, cfg(), seed0+s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ce.RunSteps(3 * n / 2); err != nil {
				t.Fatal(err)
			}
			out = append(out, ceqOutCount(maj, ce))
		}
		return out
	}
	exact := sample(engine.CountOptions{BlockLen: 1}, 1)
	batch := sample(engine.CountOptions{Batch: engine.BatchOn}, 10_001)
	chi2, cells := ceqChi2(exact, batch)
	if cells < 3 {
		t.Fatalf("χ² degenerated to %d cells", cells)
	}
	if chi2 > 35 {
		t.Errorf("batch-vs-exact χ² = %.1f over %d cells (want < 35)", chi2, cells)
	}
}

// TestCountEquivalenceBatchOperatingScale compares batch against block
// sampling in a regime nearer the batch tier's own (n = 2¹⁶, runs of
// E[L] ≈ 160): the joint distribution of the transient majority observable
// (χ², 64 seeds per arm) and the mean convergence step (6 seeds, the block
// suite's ratio band).
func TestCountEquivalenceBatchOperatingScale(t *testing.T) {
	const n = 1 << 16
	maj := protocols.Majority{}
	cfg := func() pp.Configuration { return protocols.MajorityConfig(n/2+n/64, n/2-n/64) }

	t.Run("transient-chi2", func(t *testing.T) {
		const seeds = 64
		sample := func(opts engine.CountOptions, seed0 int64) []float64 {
			out := make([]float64, 0, seeds)
			for s := int64(0); s < seeds; s++ {
				ce, err := engine.NewCountEngine(model.TW, maj, cfg(), seed0+s, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := ce.RunSteps(2 * n); err != nil {
					t.Fatal(err)
				}
				out = append(out, ceqOutCount(maj, ce))
			}
			return out
		}
		block := sample(engine.CountOptions{}, 1) // auto: B = √n/2 = 128
		batch := sample(engine.CountOptions{Batch: engine.BatchOn}, 20_001)
		chi2, cells := ceqChi2(block, batch)
		if cells < 3 {
			t.Fatalf("χ² degenerated to %d cells", cells)
		}
		if chi2 > 35 {
			t.Errorf("batch-vs-block χ² = %.1f over %d cells (want < 35)", chi2, cells)
		}
	})

	t.Run("majority-convergence", func(t *testing.T) {
		// Full cleanup to an all-"A" population takes ≈ 400·n interactions
		// (the blank-conversion endgame dominates), so the convergence
		// comparison runs one size down from the χ² to keep the suite fast
		// under the race detector.
		const cn = 1 << 14
		ccfg := func() pp.Configuration { return protocols.MajorityConfig(cn/2+cn/64, cn/2-cn/64) }
		done := func(in *pp.Interner) func(pp.Counts) bool {
			return func(c pp.Counts) bool {
				var a int64
				for id, cnt := range c {
					if cnt > 0 && maj.Output(in.State(uint32(id))) == "A" {
						a += cnt
					}
				}
				return a == int64(cn)
			}
		}
		var blockHits, batchHits []float64
		for seed := int64(1); seed <= 4; seed++ {
			cb, err := engine.NewCountEngine(model.TW, maj, ccfg(), seed, engine.CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			hit, ok, err := cb.RunUntil(done(cb.Interner()), 4096, 2000*cn)
			if err != nil || !ok {
				t.Fatalf("block seed %d: ok=%v err=%v", seed, ok, err)
			}
			blockHits = append(blockHits, float64(hit))

			ce, err := engine.NewCountEngine(model.TW, maj, ccfg(), seed, engine.CountOptions{Batch: engine.BatchOn})
			if err != nil {
				t.Fatal(err)
			}
			if !ce.Batch() || ce.BlockLen() != 0 {
				t.Fatalf("BatchOn engine reports batch=%v blockLen=%d", ce.Batch(), ce.BlockLen())
			}
			hitB, ok, err := ce.RunUntil(done(ce.Interner()), 4096, 2000*cn)
			if err != nil || !ok {
				t.Fatalf("batch seed %d: ok=%v err=%v", seed, ok, err)
			}
			batchHits = append(batchHits, float64(hitB))
		}
		mr, mb := ceqMean(blockHits), ceqMean(batchHits)
		if ratio := mb / mr; ratio < 0.5 || ratio > 2.0 {
			t.Errorf("mean convergence steps diverged: block %.0f, batch %.0f (ratio %.2f)", mr, mb, ratio)
		}
	})
}

// TestCountEquivalenceBatchWrapped covers the fault-tolerant simulators on
// batch dynamics: projected final multisets, simulation-event totals and
// SKnO convergence steps against the exact sampler.
func TestCountEquivalenceBatchWrapped(t *testing.T) {
	const n = 48
	maj := protocols.Majority{}
	simCfg := protocols.MajorityConfig(n/2+4, n/2-4)
	workloads := []struct {
		name     string
		kind     model.Kind
		protocol any
		wrap     pp.Configuration
		conv     bool
	}{
		{"skno", model.IT, sim.SKnO{P: maj, O: 0}, sim.SKnO{P: maj, O: 0}.WrapConfig(simCfg), true},
		{"sid", model.IO, sim.SID{P: maj}, sim.SID{P: maj}.WrapConfig(simCfg), false},
		{"naming", model.IO, sim.Naming{P: maj, N: n}, sim.Naming{P: maj, N: n}.WrapConfig(simCfg), false},
	}
	fixedT := 400 * n
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			done := func(c pp.Configuration) bool { return protocols.MajorityConverged(sim.Project(c), "A") }
			run := func(opts engine.CountOptions) (map[string]float64, float64, []float64) {
				counts := map[string]float64{}
				var events float64
				var hits []float64
				for seed := int64(1); seed <= ceqSeeds; seed++ {
					o := opts
					o.TrackEvents = true
					ce, err := engine.NewCountEngine(w.kind, w.protocol, w.wrap, seed, o)
					if err != nil {
						t.Fatal(err)
					}
					if err := ce.RunSteps(fixedT); err != nil {
						t.Fatal(err)
					}
					ceqAddCounts(counts, sim.Project(ce.Config()))
					events += float64(ce.EventCount())
					if w.conv {
						ce2, err := engine.NewCountEngine(w.kind, w.protocol, w.wrap, seed, opts)
						if err != nil {
							t.Fatal(err)
						}
						in := ce2.Interner()
						hit, ok, err := ce2.RunUntil(func(c pp.Counts) bool {
							return done(in.MaterializeCounts(c, nil))
						}, 64, 20_000_000)
						if err != nil || !ok {
							t.Fatalf("seed %d: ok=%v err=%v", seed, ok, err)
						}
						hits = append(hits, float64(hit))
					}
				}
				for k := range counts {
					counts[k] /= ceqSeeds
				}
				return counts, events, hits
			}

			refCounts, refEvents, refHits := run(engine.CountOptions{BlockLen: 1})
			batCounts, batEvents, batHits := run(engine.CountOptions{Batch: engine.BatchOn})

			tol := 0.2 * float64(n)
			keys := map[string]bool{}
			for k := range refCounts {
				keys[k] = true
			}
			for k := range batCounts {
				keys[k] = true
			}
			for k := range keys {
				if d := batCounts[k] - refCounts[k]; d > tol || d < -tol {
					t.Errorf("mean projected count of %q diverged: exact %.1f, batch %.1f (tol %.1f)",
						k, refCounts[k], batCounts[k], tol)
				}
			}
			if refEvents > 0 {
				if ratio := batEvents / refEvents; ratio < 0.6 || ratio > 1.6 {
					t.Errorf("simulation-event totals diverged: exact %.0f, batch %.0f (ratio %.2f)",
						refEvents/ceqSeeds, batEvents/ceqSeeds, ratio)
				}
			}
			if w.conv {
				mr, mb := ceqMean(refHits), ceqMean(batHits)
				if ratio := mb / mr; ratio < 0.4 || ratio > 2.5 {
					t.Errorf("mean convergence steps diverged: exact %.0f, batch %.0f (ratio %.2f)", mr, mb, ratio)
				}
			}
		})
	}
}
