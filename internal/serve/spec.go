package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"popsim"
	"popsim/internal/model"
	"popsim/internal/pp"
)

// Spec is a declarative scenario: everything cmd/ppsim expresses as flags, as
// one JSON document the job server accepts over HTTP and ppsim accepts via
// -spec. A Spec names a registered workload and tuning; it is validated
// against the workload/model/simulator registries before anything runs, and
// its normalized form (defaults filled, canonical casing) is the identity the
// result cache hashes.
type Spec struct {
	// Protocol names a registered workload (WorkloadByName).
	Protocol string `json:"protocol"`
	// Model is the interaction model (model.ParseKind); default TW.
	Model string `json:"model,omitempty"`
	// Topology is the interaction topology (model.ParseTopology):
	// complete|cycle|grid|cliques[:k]|regular[:d]|powerlaw[:m]. Empty or
	// "complete" is the complete graph — the classical scheduler, and the
	// canonical form stays empty so historical cache keys are unchanged.
	// Non-complete topologies canonicalize to their explicit form
	// ("cliques:8") and participate in the cache key: the same workload on a
	// different graph is a different scenario.
	Topology string `json:"topology,omitempty"`
	// Sim runs the protocol through a fault-tolerant simulator:
	// skno|sid|naming; empty = native.
	Sim string `json:"sim,omitempty"`
	// O is the omission bound for the skno simulator.
	O int `json:"o,omitempty"`
	// N is the population size.
	N int `json:"n"`
	// Seed is the base RNG seed; default 1. Runs > 1 uses seeds
	// Seed..Seed+Runs−1.
	Seed int64 `json:"seed,omitempty"`
	// Runs is the ensemble width; default 1.
	Runs int `json:"runs,omitempty"`
	// Horizon bounds scheduled interactions per run; default
	// max(2e6, 64·N).
	Horizon int `json:"horizon,omitempty"`
	// OmissionRate enables the omission adversary (vector backend only).
	OmissionRate float64 `json:"omission_rate,omitempty"`
	// OmissionBudget bounds the adversary's omissions; 0 = unbounded.
	OmissionBudget int `json:"omission_budget,omitempty"`
	// Backend selects the execution backend: auto (counts at large N, the
	// facade's RunUntilCounts policy), counts (O(|Q|); checkpointable), or
	// vector (agent vector; required for adversary specs). Default auto.
	Backend string `json:"backend,omitempty"`
	// MaxStates overrides the counts backend's interned-state bound.
	MaxStates int `json:"max_states,omitempty"`
	// Batch selects the counts backend's collision-aware batch tier:
	// auto|on|off. Empty or "auto" is automatic selection (batch dynamics
	// at n ≥ popsim.DefaultCountBatchN = 2¹⁷, where batch is already 3×
	// faster per interaction than the block tier) and canonicalizes to the
	// empty field; "on"/"off" force the tier and participate in the cache
	// key — a different sampling tier is a different scenario (batch runs
	// match the block/exact samplers in distribution, never byte for byte).
	Batch string `json:"batch,omitempty"`
}

// Backend names.
const (
	BackendAuto   = "auto"
	BackendCounts = "counts"
	BackendVector = "vector"
)

// Normalize validates the spec against the registries and fills defaults
// in place, so that two specs meaning the same scenario hash identically.
func (s *Spec) Normalize() error {
	w, err := WorkloadByName(s.Protocol)
	if err != nil {
		return err
	}
	s.Protocol = w.Name
	if s.Model == "" {
		s.Model = "TW"
	}
	kind, err := model.ParseKind(s.Model)
	if err != nil {
		return err
	}
	s.Model = fmt.Sprintf("%v", kind)
	switch s.Sim {
	case "", "skno", "sid", "naming":
	default:
		return fmt.Errorf("unknown simulator %q (skno|sid|naming)", s.Sim)
	}
	if s.Sim != "skno" {
		s.O = 0
	}
	if s.O < 0 {
		return fmt.Errorf("omission bound o must be ≥ 0, got %d", s.O)
	}
	if s.N < 2 {
		return fmt.Errorf("population size n must be ≥ 2, got %d", s.N)
	}
	topo, err := model.ParseTopology(s.Topology)
	if err != nil {
		return err
	}
	if topo.IsComplete() {
		s.Topology = "" // canonical: complete stays the empty field
	} else {
		if err := topo.Validate(s.N); err != nil {
			return err
		}
		s.Topology = topo.String()
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Runs == 0 {
		s.Runs = 1
	}
	if s.Runs < 1 {
		return fmt.Errorf("runs must be ≥ 1, got %d", s.Runs)
	}
	if s.Horizon == 0 {
		s.Horizon = 2_000_000
		if h := 64 * s.N; h > s.Horizon {
			s.Horizon = h
		}
	}
	if s.Horizon < 1 {
		return fmt.Errorf("horizon must be ≥ 1, got %d", s.Horizon)
	}
	if s.OmissionRate < 0 || s.OmissionRate >= 1 {
		return fmt.Errorf("omission_rate must be in [0,1), got %g", s.OmissionRate)
	}
	if s.OmissionBudget < 0 {
		return fmt.Errorf("omission_budget must be ≥ 0 (0 = unbounded), got %d", s.OmissionBudget)
	}
	if s.OmissionRate > 0 && !kind.Omissive() {
		return fmt.Errorf("omission_rate needs an omissive model (T1-T3, I1-I4): model %v admits no omissions", kind)
	}
	if s.Backend == "" {
		s.Backend = BackendAuto
	}
	switch s.Backend {
	case BackendAuto, BackendVector:
	case BackendCounts:
		if s.OmissionRate > 0 {
			return fmt.Errorf("the counts backend is outside the adversary contract: use backend %q with omission_rate", BackendVector)
		}
		if topo := s.TopologyValue(); !topo.VertexTransitive() {
			return fmt.Errorf("the counts backend aggregates vertex-transitive topologies only (annealed contract): topology %q needs backend %q or %q", topo, BackendAuto, BackendVector)
		}
	default:
		return fmt.Errorf("unknown backend %q (%s|%s|%s)", s.Backend, BackendAuto, BackendCounts, BackendVector)
	}
	if s.MaxStates < 0 {
		return fmt.Errorf("max_states must be ≥ 0, got %d", s.MaxStates)
	}
	switch s.Batch {
	case "", "auto":
		s.Batch = "" // canonical: auto stays the empty field
	case "off":
	case "on":
		if s.Backend == BackendVector {
			return fmt.Errorf("batch \"on\" tunes the counts backend; backend %q never runs it", BackendVector)
		}
		if s.OmissionRate > 0 {
			return fmt.Errorf("batch \"on\" needs the counts backend, which is outside the adversary contract: drop omission_rate")
		}
	default:
		return fmt.Errorf("unknown batch mode %q (auto|on|off)", s.Batch)
	}
	return nil
}

// UseCountsBackend reports whether the manager runs this spec's seeds on the
// O(|Q|) counts backend: an explicit counts backend (the caller accepted the
// annealed contract; Normalize checked the topology is vertex-transitive), or
// auto at counts scale on the complete topology with no adversary — on a
// graph the quenched vector engine is the faithful execution, mirroring
// popsim.RunUntilCounts. Call after Normalize; Build uses the same predicate
// to decide whether a counts-native initial configuration (no O(n) agent
// vector) can stand in for the materialized one.
func (s *Spec) UseCountsBackend() bool {
	return s.Backend == BackendCounts ||
		(s.Backend == BackendAuto && s.OmissionRate == 0 &&
			s.N >= popsim.DefaultCountsBackendN && s.TopologyValue().IsComplete())
}

// BatchValue returns the spec's batch tier as the facade's BatchMode. Call
// after Normalize.
func (s *Spec) BatchValue() popsim.BatchMode {
	switch s.Batch {
	case "on":
		return popsim.BatchOn
	case "off":
		return popsim.BatchOff
	}
	return popsim.BatchAuto
}

// TopologyValue returns the spec's parsed interaction topology (the zero
// value — complete — for the empty canonical field). Call after Normalize;
// an unparsable field falls back to complete.
func (s *Spec) TopologyValue() model.Topology {
	topo, err := model.ParseTopology(s.Topology)
	if err != nil {
		return model.Topology{}
	}
	return topo
}

// Canonical renders the normalized spec as canonical JSON — the
// content-addressed identity of the scenario. Call Normalize first; the
// encoding is deterministic (fixed field order, defaults filled).
func (s *Spec) Canonical() ([]byte, error) {
	return json.Marshal(s)
}

// CacheKey returns the content address of one run of the scenario: the
// SHA-256 of the canonical spec and the run's seed. Identical resubmissions
// hit the result cache under this key; any semantic difference — protocol,
// model, n, horizon, backend — changes it.
func (s *Spec) CacheKey(seed int64) (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(canon)
	h.Write([]byte("\nseed="))
	h.Write([]byte(strconv.FormatInt(seed, 10)))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Hash returns the first 8 hex digits of the canonical spec hash — the
// human-readable scenario tag job IDs embed.
func (s *Spec) Hash() string {
	canon, err := s.Canonical()
	if err != nil {
		return "00000000"
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:4])
}

// Seeds expands the ensemble seed list: Seed, Seed+1, …, Seed+Runs−1.
func (s *Spec) Seeds() []int64 {
	out := make([]int64, s.Runs)
	for i := range out {
		out[i] = s.Seed + int64(i)
	}
	return out
}

// Build resolves the spec into the workload and a popsim.SystemSpec for one
// seed, mirroring cmd/ppsim's flag handling exactly — the spec is the
// declarative form of the same scenario space.
func (s *Spec) Build(seed int64) (popsim.SystemSpec, Workload, error) {
	w, err := WorkloadByName(s.Protocol)
	if err != nil {
		return popsim.SystemSpec{}, Workload{}, err
	}
	kind, err := model.ParseKind(s.Model)
	if err != nil {
		return popsim.SystemSpec{}, Workload{}, err
	}
	topo, err := model.ParseTopology(s.Topology)
	if err != nil {
		return popsim.SystemSpec{}, Workload{}, err
	}
	spec := popsim.SystemSpec{
		Model:         kind,
		Seed:          seed,
		Topology:      topo,
		MaxFastStates: s.MaxStates,
		CountBatch:    s.BatchValue(),
	}
	if s.Sim == "" && w.CountsConfig != nil && s.UseCountsBackend() {
		// Counts-native construction: the run executes on the counts
		// backend, so never materialize the O(n) agent vector — at the batch
		// tier's 10⁸–10⁹ operating range it wouldn't fit. CountsConfig cells
		// are in Config's first-occurrence order, so the interner assigns
		// identical dense IDs and the run is bit-identical to one built from
		// the materialized configuration. Simulator runs keep Initial: their
		// wrapped configurations are position-dependent.
		spec.InitialCounts = w.CountsConfig(s.N)
	} else {
		spec.Initial = w.Config(s.N)
	}
	switch s.Sim {
	case "":
		if kind.OneWay() {
			spec.Protocol = pp.OneWayAdapter{P: w.Proto}
		} else {
			spec.Protocol = w.Proto
		}
	case "skno":
		sm := popsim.SKnO(w.Proto, s.O)
		if !kind.OneWay() {
			sm = sm.TwoWayEmbedded()
		}
		spec.Simulate = &sm
	case "sid":
		sm := popsim.SID(w.Proto)
		if !kind.OneWay() {
			sm = sm.TwoWayEmbedded()
		}
		spec.Simulate = &sm
	case "naming":
		sm := popsim.Naming(w.Proto, s.N)
		if !kind.OneWay() {
			sm = sm.TwoWayEmbedded()
		}
		spec.Simulate = &sm
	default:
		return popsim.SystemSpec{}, Workload{}, fmt.Errorf("unknown simulator %q", s.Sim)
	}
	if s.OmissionRate > 0 {
		if s.OmissionBudget > 0 {
			spec.Adversary = popsim.BudgetedAdversary(seed+1, s.OmissionRate, s.OmissionBudget)
		} else {
			spec.Adversary = popsim.UOAdversary(seed+1, s.OmissionRate, 1)
		}
	}
	return spec, w, nil
}

// ParseSpec decodes and normalizes a JSON scenario document, rejecting
// unknown fields (a typoed knob must not silently mean a different scenario).
func ParseSpec(doc []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario spec: %w", err)
	}
	if err := s.Normalize(); err != nil {
		return nil, fmt.Errorf("scenario spec: %w", err)
	}
	return &s, nil
}
