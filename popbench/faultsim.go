package main

import (
	"fmt"
	"os"
	"time"

	"popsim"
	"popsim/internal/pp"
	"popsim/internal/serve"
)

// fault-sim: the paper's simulators under omission adversaries on the
// vector engine, every simulated run checked by VerifySimulation, plus
// native or epidemics under UO omissions observed at popsimd's predicate
// cadence.

type faultCase struct {
	name string
	// spec is the popsimd spec document without its seed.
	spec string
	// every > 0 runs RunUntilEvery at that cadence; 0 runs the stepwise
	// RunUntil (predicate after every interaction), as the experiments do.
	every int
	// count is the number of runs per round. Simulated run lengths vary
	// by a factor of ten between seeds, so each round holds many short
	// ones: their total, and the mix of per-interaction costs, then barely
	// moves from seed to seed.
	count int
}

var faultCases = []faultCase{
	{"or-T3-UO", `"protocol":"or","model":"T3","n":16384,"omission_rate":0.01,"backend":"vector","horizon":4000000`, 64, 1},
	{"or-I3-UO", `"protocol":"or","model":"I3","n":16384,"omission_rate":0.01,"backend":"vector","horizon":4000000`, 64, 1},
	{"skno1-I3", `"protocol":"pairing","sim":"skno","o":1,"model":"I3","n":8,"omission_rate":0.02,"omission_budget":1,"backend":"vector","horizon":20000000`, 0, 16},
	{"skno1-I4", `"protocol":"majority","sim":"skno","o":1,"model":"I4","n":8,"omission_rate":0.02,"omission_budget":1,"backend":"vector","horizon":20000000`, 0, 16},
	{"skno0-IT", `"protocol":"pairing","sim":"skno","o":0,"model":"IT","n":16,"backend":"vector","horizon":20000000`, 0, 16},
	{"sid-IO", `"protocol":"majority","sim":"sid","model":"IO","n":16,"backend":"vector","horizon":20000000`, 0, 16},
	{"naming-IO", `"protocol":"majority","sim":"naming","model":"IO","n":16,"backend":"vector","horizon":20000000`, 0, 16},
}

const faultWarmup = 20_000 // interactions each set-up warm-up system applies

type faultRun struct {
	scope   string
	c       faultCase
	sys     *popsim.System
	sim     bool
	done    func(pp.Configuration) bool
	horizon int
}

func buildFault(tr *tracer, scope string, c faultCase, seed int64) (*faultRun, error) {
	id := tr.begin("serve.Spec.Build+popsim.NewSystem", "popsim.new_system_s", scope, 0)
	defer tr.end(id)
	spec, err := serve.ParseSpec(fmt.Appendf(nil, `{%s,"seed":%d}`, c.spec, seed))
	if err != nil {
		return nil, err
	}
	ss, w, err := spec.Build(spec.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := popsim.NewSystem(ss)
	if err != nil {
		return nil, err
	}
	return &faultRun{scope: scope, c: c, sys: sys, sim: ss.Simulate != nil, done: w.Done(spec.N), horizon: spec.Horizon}, nil
}

func measureFaultSim(e *env) (*phase, error) {
	ph := &phase{layer: map[string]float64{}, preSetup: time.Since(processStart).Seconds()}
	ticks, err := readTicks()
	if err != nil {
		return nil, err
	}
	var runs []*faultRun
	for k := 0; k < setupRepeats; k++ {
		tr := e.tr
		if k < setupRepeats-1 {
			tr = nil
		}
		start := time.Now()
		runs = runs[:0]
		for r := 0; r < e.rounds; r++ {
			for i, c := range faultCases {
				for j := 0; j < c.count; j++ {
					seed := subSeed(e.seed, r, i, j)
					scope := fmt.Sprintf("r%d/%s/seed=%d", r, c.name, seed)
					run, err := buildFault(tr, scope, c, seed)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", scope, err)
					}
					runs = append(runs, run)
				}
			}
		}
		// Warm-up: a fixed number of interactions on a throw-away system
		// per scenario (stepping a measured system would move its run).
		for i, c := range faultCases {
			w, err := buildFault(nil, "warm-up", c, subSeed(e.seed, -1, i))
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
			}
			if err := w.sys.RunSteps(faultWarmup); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
			}
		}
		ph.setup = append(ph.setup, time.Since(start).Seconds())
	}

	var pairs, omissions, simPhys, simSteps int64
	if ph.setupShare, err = unstolenSince(ticks); err != nil {
		return nil, err
	}
	if ticks, err = readTicks(); err != nil {
		return nil, err
	}
	mem := sampleRSS(os.Getpid(), rssWindow)
	begin := time.Now()
	for _, run := range runs {
		ph.attempted++
		var obs observer
		pred := wrap(e.tr, &obs, run.done)
		start := time.Now()
		var ok bool
		var err error
		if run.c.every > 0 {
			id := e.tr.begin("popsim.System.RunUntilEvery", "engine.vector_run_s", run.scope, 0)
			_, ok, err = run.sys.RunUntilEvery(pred, run.c.every, run.horizon)
			e.tr.end(id)
			e.tr.aggregate("predicate", "engine.observe_s", id, obs.calls, obs.total)
		} else {
			id := e.tr.begin("popsim.System.RunUntil", "engine.vector_run_s", run.scope, 0)
			ok, err = run.sys.RunUntil(pred, run.horizon)
			e.tr.end(id)
			e.tr.aggregate("predicate", "engine.observe_s", id, obs.calls, obs.total)
		}
		var verr error
		if err == nil && run.sim {
			id := e.tr.begin("popsim.System.VerifySimulation", "verify.verify_s", run.scope, 0)
			var rep *popsim.VerifyReport
			rep, verr = run.sys.VerifySimulation()
			e.tr.end(id)
			pairs += int64(len(rep.Pairs))
		}
		ph.jobs = append(ph.jobs, time.Since(start).Seconds())
		steps := int64(run.sys.Steps())
		ph.interactions += steps
		omissions += int64(run.sys.Omissions())
		if run.sim {
			simPhys += steps
			simSteps += int64(run.sys.SimulatedSteps())
		}
		switch {
		case err != nil:
			ph.miss("%s: %v", run.scope, err)
		case !ok:
			ph.miss("%s: not converged within %d interactions", run.scope, run.horizon)
		case verr != nil:
			ph.wrongOutcome("%s: VerifySimulation: %v", run.scope, verr)
		case !run.done(run.sys.Projected()):
			ph.wrongOutcome("%s: projected configuration has the wrong output", run.scope)
		}
		run.sys = nil // a finished run's trace is garbage from here on
	}
	ph.wall = time.Since(begin).Seconds()
	if ph.runShare, err = unstolenSince(ticks); err != nil {
		return nil, err
	}
	ph.layer["verify.pairs"] = float64(pairs)
	ph.layer["adversary.omissions"] = float64(omissions)
	if simSteps > 0 {
		ph.layer["sim.phys_per_sim"] = float64(simPhys) / float64(simSteps)
	}
	if ph.rss, err = mem.finish(); err != nil {
		return nil, err
	}
	return ph, nil
}
