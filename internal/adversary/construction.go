package adversary

import (
	"errors"
	"fmt"

	"popsim/internal/model"
	"popsim/internal/pp"
	"popsim/internal/sched"
)

// This file implements the constructive adversaries of Section 3 of the
// paper: the run I* of Lemma 1 (used by Theorems 3.1 and 3.3) and its
// omission-free variants of Theorem 3.2. The construction "fools" t pairs of
// agents — plus one extra agent — into believing they each are one half of a
// two-agent system, extracting t+1 irrevocable transitions from only t
// producers and thereby violating the safety of the Pairing problem.
//
// The constructions are generic over a Victim: any concrete simulator
// (wrapped protocol) running in a one-way omissive model. The paper states
// Lemma 1 for T3; every one-way omissive protocol embeds in T3 (README,
// "Notes on the paper"), and for one-way victims the construction below is
// the faithful specialization: an interaction delivers only starter →
// reactor, so substituting an identically-behaving doppelgänger at either
// endpoint is undetectable.

// Victim is a concrete simulator instance subjected to a construction.
type Victim struct {
	// Name identifies the victim in reports.
	Name string
	// Model is the interaction model the victim runs in (I1, I2, I3, I4).
	Model model.Kind
	// Protocol is the simulator protocol (a pp.OneWay).
	Protocol pp.OneWay
	// Wrap builds the initial wrapped state for an agent with the given
	// simulated state; origin is verification-only instrumentation.
	Wrap func(sim pp.State, origin int) pp.State
	// Project recovers the simulated state from a wrapped state.
	Project func(pp.State) pp.State
}

// Errors returned by the constructions.
var (
	// ErrNoFTT means no omission-free two-agent run performed a full
	// simulated transition within the search depth.
	ErrNoFTT = errors.New("construction: FTT not found within depth bound")
	// ErrStalled means the two-agent run Ik never completed the simulated
	// transition after its omission — the victim is not resilient to a
	// single omission (the empirical content of Theorem 3.2 for concrete
	// simulators).
	ErrStalled = errors.New("construction: victim stalled after omission (tk undefined)")
)

// applyPair applies one interaction to a two-element configuration under the
// victim's model.
func (v Victim) applyPair(cfg *[2]pp.State, it pp.Interaction) error {
	s, r := cfg[it.Starter], cfg[it.Reactor]
	ns, nr, err := model.Apply(v.Model, v.Protocol, s, r, it.Omission)
	if err != nil {
		return err
	}
	cfg[it.Starter], cfg[it.Reactor] = ns, nr
	return nil
}

// FindFTT computes the Fastest Transition Time (Definition 7) of the victim
// on the two-agent system with simulated initial states (q0, q1): the
// minimal number t of omission-free interactions after which both projected
// states equal δP(q0, q1), together with a run I achieving it.
func (v Victim) FindFTT(q0, q1 pp.State, delta func(a, b pp.State) (pp.State, pp.State), maxDepth int) (int, pp.Run, error) {
	want0, want1 := delta(q0, q1)
	type node struct {
		cfg  [2]pp.State
		path pp.Run
	}
	start := node{cfg: [2]pp.State{v.Wrap(q0, 0), v.Wrap(q1, 1)}}
	goal := func(n node) bool {
		return pp.Equal(v.Project(n.cfg[0]), want0) && pp.Equal(v.Project(n.cfg[1]), want1)
	}
	if goal(start) {
		return 0, nil, nil
	}
	frontier := []node{start}
	seen := map[string]bool{start.cfg[0].Key() + "|" + start.cfg[1].Key(): true}
	moves := []pp.Interaction{{Starter: 0, Reactor: 1}, {Starter: 1, Reactor: 0}}
	for depth := 1; depth <= maxDepth; depth++ {
		next := make([]node, 0, 2*len(frontier))
		for _, n := range frontier {
			for _, mv := range moves {
				child := node{cfg: n.cfg, path: append(n.path.Clone(), mv)}
				if err := v.applyPair(&child.cfg, mv); err != nil {
					return 0, nil, fmt.Errorf("FTT search: %w", err)
				}
				if goal(child) {
					return depth, child.path, nil
				}
				k := child.cfg[0].Key() + "|" + child.cfg[1].Key()
				if !seen[k] {
					seen[k] = true
					next = append(next, child)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return 0, nil, ErrNoFTT
}

// BuildIk constructs the two-agent run Ik of Lemma 1: the first k
// interactions of I, then an omissive interaction with the same starter as
// I[k] and the omission on d1's side, extended (fairly, without further
// omissions) until agent d1 (index 1) reaches the simulated state target.
//
// In one-way models, "omission on d1's side" is an omissive interaction when
// d1 is the reactor of I[k]; when d1 is the starter it receives nothing in
// any case, so the omission degenerates to a plain interaction (the loss
// hits the sacrificial counterpart in the large system).
//
// Returns the full run Ik (length tk) such that after executing it, d1's
// projected state equals target.
func (v Victim) BuildIk(q0, q1 pp.State, runI pp.Run, k int, target pp.State, seed int64, maxExtend int) (pp.Run, error) {
	ik := runI[:k].Clone()
	om := runI[k]
	if om.Reactor == 1 {
		om.Omission = pp.OmissionReactor
	} else {
		// d1 is the starter: a one-way starter receives nothing, so
		// the "omission on d1's side" is indistinguishable from a
		// successful interaction on d1's side; the transmission to d0
		// must still be delivered (T3 semantics: (o(d1), fr(d1,d0))).
		om.Omission = pp.OmissionNone
	}
	ik = append(ik, om)

	cfg := [2]pp.State{v.Wrap(q0, 0), v.Wrap(q1, 1)}
	for _, it := range ik {
		if err := v.applyPair(&cfg, it); err != nil {
			return nil, err
		}
	}
	if pp.Equal(v.Project(cfg[1]), target) {
		return ik, nil
	}
	rng := sched.NewRandom(seed)
	for i := 0; i < maxExtend; i++ {
		it, _ := rng.Next(2)
		ik = append(ik, it)
		if err := v.applyPair(&cfg, it); err != nil {
			return nil, err
		}
		if pp.Equal(v.Project(cfg[1]), target) {
			return ik, nil
		}
	}
	return nil, fmt.Errorf("%w: k=%d after %d extension steps", ErrStalled, k, maxExtend)
}

// remap renames the two-agent interaction (agents 0, 1) onto the pair
// (a2k, a2k+1) of the large system.
func remap(it pp.Interaction, k int) pp.Interaction {
	m := func(a int) int { return 2*k + a }
	return pp.Interaction{Starter: m(it.Starter), Reactor: m(it.Reactor), Omission: it.Omission}
}

// Lemma1Run is the output of the Lemma 1 construction.
type Lemma1Run struct {
	// FTT is t: the fastest transition time of the victim on (q0, q1).
	FTT int
	// RunI is the two-agent run achieving FTT.
	RunI pp.Run
	// IStar is the assembled run for the 2t+2-agent system.
	IStar pp.Run
	// Agents is 2t+2.
	Agents int
	// Omissions is O(I*) ≤ t.
	Omissions int
	// TKs records tk for each k (length of each Ik).
	TKs []int
}

// BuildLemma1 assembles the run I* of Lemma 1 for the victim on initial
// simulated states q0 (t agents: even indices 0..2t−2), q1 (t+2 agents: odd
// indices plus a2t and a2t+1). After executing I*, at least t+1 agents have
// transitioned q1 → δP(q0,q1)[1], although only t agents ever held q0 —
// the safety violation used by Theorems 3.1 and 3.3.
func (v Victim) BuildLemma1(q0, q1 pp.State, delta func(a, b pp.State) (pp.State, pp.State), seed int64, maxDepth, maxExtend int) (*Lemma1Run, error) {
	t, runI, err := v.FindFTT(q0, q1, delta, maxDepth)
	if err != nil {
		return nil, err
	}
	if t == 0 {
		return nil, fmt.Errorf("construction: degenerate FTT 0 (δ leaves (q0,q1) unchanged?)")
	}
	_, target := delta(q0, q1) // q1' — the state d1 transitions to
	out := &Lemma1Run{FTT: t, RunI: runI, Agents: 2*t + 2}
	a2t, a2t1 := 2*t, 2*t+1
	for k := 0; k < t; k++ {
		ik, err := v.BuildIk(q0, q1, runI, k, target, seed+int64(k), maxExtend)
		if err != nil {
			return nil, err
		}
		out.TKs = append(out.TKs, len(ik))
		// Jk: replicate Ik[0..k-1] on the pair, substitute Ik[k] by the
		// redirected interactions, then replicate the rest.
		for _, it := range ik[:k] {
			out.IStar = append(out.IStar, remap(it, k))
		}
		orig := runI[k]
		if orig.Starter == 0 {
			// d0 starts I[k]: a2k transmits to a2t (fooling a2t into
			// its I[k] reception), and a2k+1 suffers the detected
			// omission from the sacrificial a2t+1.
			out.IStar = append(out.IStar,
				pp.Interaction{Starter: 2 * k, Reactor: a2t},
				pp.Interaction{Starter: a2t1, Reactor: 2*k + 1, Omission: pp.OmissionReactor},
			)
			out.Omissions++
		} else {
			// d1 starts I[k]: a2t plays d1's transmission towards
			// a2k; a2k+1 applies its starter-side update against the
			// sacrificial agent. No omission is needed (the starter
			// side of a one-way interaction receives nothing).
			out.IStar = append(out.IStar,
				pp.Interaction{Starter: a2t, Reactor: 2 * k},
				pp.Interaction{Starter: 2*k + 1, Reactor: a2t1},
			)
		}
		for _, it := range ik[k+1:] {
			out.IStar = append(out.IStar, remap(it, k))
		}
	}
	return out, nil
}

// InitialConfig builds the wrapped initial configuration B0 of Lemma 1 for
// this construction: q0 on even indices 0..2t−2, q1 everywhere else.
//
// Instrumentation origins are assigned by *role* (0 for q0-agents, 1 for the
// rest) rather than by agent index, so that each fooled agent's local state
// is bit-for-bit identical to its two-agent counterpart — the
// indistinguishability at the heart of Lemma 1, assertable in tests.
func (r *Lemma1Run) InitialConfig(v Victim, q0, q1 pp.State) pp.Configuration {
	cfg := make(pp.Configuration, r.Agents)
	for i := range cfg {
		st, origin := q1, 1
		if i < 2*r.FTT && i%2 == 0 {
			st, origin = q0, 0
		}
		cfg[i] = v.Wrap(st, origin)
	}
	return cfg
}
