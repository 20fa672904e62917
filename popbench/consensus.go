package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"popsim"
	"popsim/internal/protocols"
	"popsim/internal/serve"
)

// consensus-counts: counts-native majority 55/45 and the or epidemic at
// n = 2²⁰ (block tier under BatchAuto) and n = 10⁸ (batch tier), each run
// to consensus by RunUntilCounts on one goroutine.

type consensusCase struct {
	protocol string
	n        int
}

// consensusCases is one round. Majority at n = 2²⁰ runs twice, so that the
// nearest-rank job_p50_s of the round's five runs is a multi-second
// majority run rather than one of the two ~1 s or runs, whose order flips
// with host noise.
var consensusCases = []consensusCase{
	{"majority", 1 << 20},
	{"majority", 1 << 20},
	{"or", 1 << 20},
	{"majority", 100_000_000},
	{"or", 100_000_000},
}

const (
	consensusEvery  = 1 << 20 // predicate cadence, in interactions
	consensusWarmup = 1 << 21 // interactions each set-up warm-up run applies
	setupRepeats    = 5       // set-up repetitions per run (median reported)
)

// consensusRun is one built scenario of the measured phase.
type consensusRun struct {
	scope string
	c     consensusCase
	sys   *popsim.System
	pred  func(*popsim.StateCounts) bool
	want  func(popsim.State) bool // the initial majority's output
}

// consensusSpec renders the popsimd spec document of one scenario.
func consensusSpec(c consensusCase, seed int64) []byte {
	return fmt.Appendf(nil, `{"protocol":%q,"n":%d,"seed":%d,"backend":"counts","horizon":%d}`,
		c.protocol, c.n, seed, 1000*c.n)
}

// buildConsensus turns a spec document into a counts-native system. The
// spec registry's majority input is a near-tie (n/2+1 against n/2−1); the
// workload replaces it with the 55/45 split of the consensus gate.
func buildConsensus(tr *tracer, scope string, c consensusCase, doc []byte) (*consensusRun, error) {
	id := tr.begin("serve.Spec.Build+popsim.NewSystem", "popsim.new_system_s", scope, 0)
	defer tr.end(id)
	spec, err := serve.ParseSpec(doc)
	if err != nil {
		return nil, err
	}
	ss, w, err := spec.Build(spec.Seed)
	if err != nil {
		return nil, err
	}
	out := &consensusRun{scope: scope, c: c, pred: w.CountsDone(spec.N)}
	if c.protocol == "majority" {
		a := int64(c.n) * 55 / 100
		ss.InitialCounts = []popsim.CountedState{
			{State: protocols.StrongA, Count: a},
			{State: protocols.StrongB, Count: int64(c.n) - a},
		}
		out.want = func(s popsim.State) bool { return protocols.Majority{}.Output(s) == "A" }
	} else {
		out.want = func(s popsim.State) bool { return popsim.State(protocols.One) == s }
	}
	out.sys, err = popsim.NewSystem(ss)
	return out, err
}

func measureConsensus(e *env) (*phase, error) {
	ph := &phase{layer: map[string]float64{}, preSetup: time.Since(processStart).Seconds()}
	ticks, err := readTicks()
	if err != nil {
		return nil, err
	}
	var runs []*consensusRun
	for k := 0; k < setupRepeats; k++ {
		// Only the kept (last) repetition is traced.
		tr := e.tr
		if k < setupRepeats-1 {
			tr = nil
		}
		start := time.Now()
		runs = runs[:0]
		for r := 0; r < e.rounds; r++ {
			for i, c := range consensusCases {
				seed := subSeed(e.seed, r, i)
				scope := fmt.Sprintf("r%d/%s/n=%d/seed=%d", r, c.protocol, c.n, seed)
				run, err := buildConsensus(tr, scope, c, consensusSpec(c, seed))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", scope, err)
				}
				runs = append(runs, run)
			}
		}
		// Warm-up: a fixed number of interactions on each scenario of the
		// first round. Counts-native runs always start from the initial
		// configuration, so the measured runs are unaffected.
		for _, run := range runs[:len(consensusCases)] {
			if _, err := run.sys.RunUntilCounts(nil, consensusEvery, consensusWarmup); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", run.scope, err)
			}
		}
		ph.setup = append(ph.setup, time.Since(start).Seconds())
	}

	var batchRuns, collisions int64
	var runLenTotal float64
	if ph.setupShare, err = unstolenSince(ticks); err != nil {
		return nil, err
	}
	if ticks, err = readTicks(); err != nil {
		return nil, err
	}
	mem := sampleRSS(os.Getpid(), rssWindow)
	begin := time.Now()
	for _, run := range runs {
		// Return the previous run's garbage to the OS, so that the peak-RSS
		// windows of this run measure its own footprint rather than where the
		// scavenger happened to leave the heap (a 36-or-50 MB coin flip at
		// n = 10⁸ otherwise). It costs milliseconds against runs of seconds.
		debug.FreeOSMemory()
		ph.attempted++
		var probe *popsim.RunProbe
		if e.tr != nil {
			probe = run.sys.Probe()
		}
		var obs observer
		pred := wrap(e.tr, &obs, run.pred)
		start := time.Now()
		id := e.tr.begin("popsim.System.RunUntilCounts", "", run.scope, 0)
		res, err := run.sys.RunUntilCounts(pred, consensusEvery, 1000*run.c.n)
		e.tr.end(id)
		ph.jobs = append(ph.jobs, time.Since(start).Seconds())
		if err != nil {
			ph.miss("%s: %v", run.scope, err)
			continue
		}
		e.tr.setLayer(id, runLayer(res.Backend))
		e.tr.aggregate("predicate", "engine.observe_s", id, obs.calls, obs.total)
		ph.interactions += int64(res.Steps)
		if probe != nil {
			pid := e.tr.begin("obs.RunProbe.Snapshot", "", run.scope, 0)
			snap := probe.Snapshot()
			e.tr.end(pid)
			batchRuns += snap.BatchRuns
			collisions += snap.BatchCollisions
			runLenTotal += snap.BatchMeanRunLen * float64(snap.BatchRuns)
		}
		switch {
		case !res.Converged:
			ph.miss("%s: no consensus within %d interactions", run.scope, res.Steps)
		case res.Final.CountFunc(run.want) != int64(run.c.n):
			ph.wrongOutcome("%s: converged, but only %d of %d agents output the initial majority",
				run.scope, res.Final.CountFunc(run.want), run.c.n)
		}
	}
	ph.wall = time.Since(begin).Seconds()
	if ph.runShare, err = unstolenSince(ticks); err != nil {
		return nil, err
	}
	ph.layer["sched.batch_runs"] = float64(batchRuns)
	ph.layer["sched.collisions"] = float64(collisions)
	if batchRuns > 0 {
		ph.layer["sched.mean_run_len"] = runLenTotal / float64(batchRuns)
	}
	if ph.rss, err = mem.finish(); err != nil {
		return nil, err
	}
	return ph, nil
}

// runLayer maps the backend a run reports to the layer its self time feeds.
func runLayer(backend string) string {
	switch backend {
	case "counts":
		return "engine.counts_run_s"
	case "counts-batch":
		return "engine.batch_run_s"
	}
	return "engine.vector_run_s"
}

// subSeed derives a positive 31-bit seed from the workload seed and a
// position (SplitMix64 finalizer over each part).
func subSeed(seed int64, parts ...int) int64 {
	h := uint64(seed)
	for _, p := range parts {
		h += 0x9E3779B97F4A7C15 * (uint64(p) + 1)
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return int64(h>>33) + 1
}
