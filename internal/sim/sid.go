package sim

import (
	"strconv"
	"strings"

	"popsim/internal/pp"
	"popsim/internal/verify"
)

// SIDMode is the simulator-protocol state of a SID agent (Figure 3 of the
// paper).
type SIDMode int

// SID modes.
const (
	// SIDAvailable: not committed to any simulated interaction.
	SIDAvailable SIDMode = iota + 1
	// SIDPairing: soft commitment — the agent picked a specific partner
	// (idother/stateother) for the next simulated interaction.
	SIDPairing
	// SIDLocked: hard commitment — the agent has already applied its half
	// of δP and waits for its partner to observe it and complete.
	SIDLocked
)

// String implements fmt.Stringer.
func (m SIDMode) String() string {
	switch m {
	case SIDAvailable:
		return "available"
	case SIDPairing:
		return "pairing"
	case SIDLocked:
		return "locked"
	default:
		return "sidmode?"
	}
}

// SID is the ID-locking simulator of Section 4.2 (Figure 3, Theorem 4.5):
// it simulates an arbitrary two-way protocol P in the Immediate Observation
// model, assuming agents carry unique IDs. A reactor that observes an
// available starter enters the pairing state, committing to that specific
// ID; when the committed-to agent observes the commitment it locks, applying
// δP(own, partner)[0]; when the pairing agent observes the lock it applies
// δP(partner, own)[1] and both eventually return to available. A rollback
// rule (Figure 3 lines 14–16) releases stale commitments.
//
// Erratum note (README, "Notes on the paper"): Figure 3 line 13 applies
// δP(state^s_P, stateP)[1] with the *already-updated* state of the locked
// partner; we use the pairing agent's saved stateother — the partner's state
// at pairing time — which is what the proof of Theorem 4.5 argues about.
type SID struct {
	// P is the simulated two-way protocol.
	P pp.TwoWay
	// DisableRollback switches off the stale-commitment release of
	// Figure 3 lines 14–16. Ablation-only: without it, a cycle of
	// pairing commitments deadlocks the simulator (see
	// TestSIDRollbackAblation), which is exactly why the paper includes
	// the rule.
	DisableRollback bool
}

var _ pp.OneWay = SID{}

// Name implements pp.OneWay.
func (s SID) Name() string { return "sid/" + s.P.Name() }

// Wrap builds the initial wrapped state of an agent with the given unique ID
// (ids must be ≥ 1; 0 encodes ⊥) and initial simulated state.
func (s SID) Wrap(sim pp.State, id int) *SIDState {
	return &SIDState{id: id, sim: sim, mode: SIDAvailable}
}

// WrapConfig wraps a simulated initial configuration, assigning IDs 1..n in
// order.
func (s SID) WrapConfig(simCfg pp.Configuration) pp.Configuration {
	out := make(pp.Configuration, len(simCfg))
	for i, st := range simCfg {
		out[i] = s.Wrap(st, i+1)
	}
	return out
}

// SIDState is the wrapped state of one SID agent: the simulated state plus
// the variables of Figure 3 (my_id, statesim, idother, stateother).
type SIDState struct {
	id       int
	sim      pp.State
	mode     SIDMode
	otherID  int      // idother; 0 = ⊥
	otherSim pp.State // stateother; nil = ⊥

	// Verification-only instrumentation: never read by transitions and
	// excluded from the canonical Key (see Key). lockTag labels the
	// current lock session so direct API users can pair the two halves of
	// a simulated interaction; interned runs recover provenance from the
	// run-level recorder instead.
	lockTag   string
	gen       uint64
	lastEvent verify.Event

	// key memoizes the canonical Key (cleared on clone).
	key string
}

var (
	_ Wrapped     = (*SIDState)(nil)
	_ MemoryBytes = (*SIDState)(nil)
)

// Simulated implements Wrapped.
func (a *SIDState) Simulated() pp.State { return a.sim }

// EventSeq implements Wrapped.
func (a *SIDState) EventSeq() uint64 { return a.gen }

// LastEvent implements Wrapped.
func (a *SIDState) LastEvent() verify.Event { return a.lastEvent }

// ID returns the agent's unique ID.
func (a *SIDState) ID() int { return a.id }

// Mode returns the simulator-protocol state.
func (a *SIDState) Mode() SIDMode { return a.mode }

// PartnerID returns idother (0 = ⊥).
func (a *SIDState) PartnerID() int { return a.otherID }

// Key implements pp.State. The encoding is canonical-behavioral: it covers
// exactly the Figure-3 variables the transition logic reads — my_id,
// simulated state, mode, idother, stateother — and excludes the
// instrumentation (lockTag, gen, event cache), so states that differ only in
// provenance intern to the same dense ID. The ID stays in the key because it
// IS behavioral: SID's pairing/locking conditions branch on it, which is why
// the SID state space scales with n even under canonical keys. Memoized on
// first call; memoization is unsynchronized: first calls must not race
// (executions are single-goroutine; share states across goroutines only
// after keying them).
func (a *SIDState) Key() string {
	if a.key == "" {
		a.key = a.buildKey()
	}
	return a.key
}

// CanonicalKey implements CanonicalKeyed: Key is purely behavioral.
func (a *SIDState) CanonicalKey() {}

func (a *SIDState) buildKey() string {
	var b strings.Builder
	size := 32 + len(a.sim.Key())
	if a.otherSim != nil {
		size += len(a.otherSim.Key())
	}
	b.Grow(size)
	b.WriteString("sid{")
	b.WriteString(strconv.Itoa(a.id))
	b.WriteByte(';')
	b.WriteString(a.sim.Key())
	b.WriteByte(';')
	b.WriteString(a.mode.String())
	b.WriteByte(';')
	b.WriteString(strconv.Itoa(a.otherID))
	b.WriteByte(';')
	if a.otherSim != nil {
		b.WriteString(a.otherSim.Key())
	}
	b.WriteByte('}')
	return b.String()
}

// MemoryBytes implements MemoryBytes: two IDs of Θ(log n) bits plus one
// saved simulated state and the mode.
func (a *SIDState) MemoryBytes() int {
	total := 1 + bitsLen(a.id)/8 + 1 + bitsLen(a.otherID)/8 + 1
	if a.otherSim != nil {
		total += len(a.otherSim.Key())
	}
	return total
}

// bitsLen returns the bit length of a non-negative int, at least 1.
func bitsLen(v int) int {
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// clone returns a copy ready for mutation.
func (a *SIDState) clone() *SIDState {
	cp := *a
	cp.key = "" // the clone is about to be mutated
	return &cp
}

// reset clears the pairing/locking variables (lines 11–12, 15–16).
func (a *SIDState) reset() {
	a.mode = SIDAvailable
	a.otherID = 0
	a.otherSim = nil
	a.lockTag = ""
}

// Detect implements pp.OneWay. SID targets the Immediate Observation model:
// the starter is unaware of the interaction, so g is the identity (the model
// layer would enforce this anyway).
func (s SID) Detect(starter pp.State) pp.State { return starter }

// React implements pp.OneWay: the reactor observes the starter's full state
// and follows Figure 3.
func (s SID) React(starter, reactor pp.State) pp.State {
	sa, ok1 := starter.(*SIDState)
	ra, ok2 := reactor.(*SIDState)
	if !ok1 || !ok2 {
		return reactor
	}
	r := ra.clone()
	switch {
	// Lines 3–5: both available — soft-commit to this starter.
	case r.mode == SIDAvailable && sa.mode == SIDAvailable:
		r.mode = SIDPairing
		r.otherID = sa.id
		r.otherSim = sa.sim

	// Lines 6–9: the starter is pairing with me (and remembers my current
	// simulated state): lock and apply my half, δP(mine, theirs)[0].
	case r.mode == SIDAvailable && sa.mode == SIDPairing &&
		sa.otherID == r.id && pp.Equal(sa.otherSim, r.sim):
		r.mode = SIDLocked
		r.otherID = sa.id
		r.otherSim = sa.sim
		pre := r.sim
		post, _ := s.P.Delta(pre, sa.sim)
		r.gen++
		r.sim = post
		r.lockTag = strconv.Itoa(r.id) + "." + strconv.FormatUint(r.gen, 10)
		r.lastEvent = verify.Event{
			Seq:        r.gen,
			Role:       verify.SimStarter,
			Pre:        pre,
			Post:       post,
			PartnerPre: sa.sim,
			Tag:        r.lockTag,
		}

	// Lines 10–13: my chosen partner locked on me — complete with
	// δP(theirs-at-pairing-time, mine)[1] and release.
	case r.mode == SIDPairing && r.otherID == sa.id &&
		sa.otherID == r.id && sa.mode == SIDLocked:
		pre := r.sim
		partnerPre := r.otherSim // erratum fix; see type comment
		_, post := s.P.Delta(partnerPre, pre)
		r.gen++
		r.sim = post
		r.lastEvent = verify.Event{
			Seq:        r.gen,
			Role:       verify.SimReactor,
			Pre:        pre,
			Post:       post,
			PartnerPre: partnerPre,
			Tag:        sa.lockTag,
		}
		r.reset()

	// Lines 14–16: my chosen partner no longer points at me — roll back.
	// For a locked agent this fires only after the partner completed (the
	// proof of Theorem 4.5), so the simulated half-step is never lost.
	case r.otherID != 0 && r.otherID == sa.id && sa.otherID != r.id:
		if s.DisableRollback {
			break
		}
		r.reset()
	}
	return r
}
