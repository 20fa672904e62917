package serve

import (
	"strings"
	"testing"

	"popsim"
	"popsim/internal/report"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	s := &Spec{Protocol: "majority", N: 65536}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Model != "TW" || s.Seed != 1 || s.Runs != 1 || s.Backend != BackendAuto {
		t.Fatalf("defaults: %+v", s)
	}
	if s.Horizon != 64*65536 {
		t.Fatalf("horizon default: %d", s.Horizon)
	}
	// Small n falls back to the 2e6 floor.
	small := &Spec{Protocol: "majority", N: 64}
	if err := small.Normalize(); err != nil {
		t.Fatal(err)
	}
	if small.Horizon != 2_000_000 {
		t.Fatalf("small-n horizon: %d", small.Horizon)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	bad := []Spec{
		{Protocol: "nope", N: 8},
		{Protocol: "majority", N: 1},
		{Protocol: "majority", N: 8, Model: "XX"},
		{Protocol: "majority", N: 8, Sim: "telepathy"},
		{Protocol: "majority", N: 8, Backend: "quantum"},
		{Protocol: "majority", N: 8, OmissionRate: 1.5},
		{Protocol: "majority", N: 8, Runs: -1},
		{Protocol: "majority", N: 8, Backend: BackendCounts, OmissionRate: 0.1},
		{Protocol: "majority", N: 8, Batch: "sometimes"},
		{Protocol: "majority", N: 8, Backend: BackendVector, Batch: "on"},
		{Protocol: "majority", N: 8, Batch: "on", OmissionRate: 0.1},
		{Protocol: "majority", N: 8, OmissionRate: 0.1},                                      // TW admits no omissions
		{Protocol: "pairing", N: 8, Sim: "sid", Model: "IO", OmissionRate: 0.1},              // nor does IO
		{Protocol: "majority", N: 8, Backend: BackendVector, Model: "IT", OmissionRate: 0.1}, // nor IT
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d (%+v) normalized without error", i, s)
		}
	}
}

func TestSpecCacheKey(t *testing.T) {
	mk := func(mut func(*Spec)) *Spec {
		s := &Spec{Protocol: "majority", N: 65536}
		mut(s)
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := mk(func(*Spec) {})
	same := mk(func(s *Spec) { s.Model = "TW"; s.Backend = BackendAuto; s.Batch = "auto" }) // explicit defaults
	k1, err := base.CacheKey(1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := same.CacheKey(1)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("explicit defaults changed the content address")
	}
	if k3, _ := base.CacheKey(2); k3 == k1 {
		t.Fatal("seed not part of the content address")
	}
	for i, other := range []*Spec{
		mk(func(s *Spec) { s.N = 65537 }),
		mk(func(s *Spec) { s.Protocol = "leader" }),
		mk(func(s *Spec) { s.Model = "IO" }),
		mk(func(s *Spec) { s.Sim = "sid" }),
		mk(func(s *Spec) { s.Horizon = 999 }),
		mk(func(s *Spec) { s.Backend = BackendCounts }),
		mk(func(s *Spec) { s.Batch = "on" }),
		mk(func(s *Spec) { s.Batch = "off" }),
	} {
		if k, _ := other.CacheKey(1); k == k1 {
			t.Errorf("variant %d shares the base content address", i)
		}
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(`{"protocol":"majority","n":1024,"runs":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 3 || len(s.Seeds()) != 3 || s.Seeds()[2] != 3 {
		t.Fatalf("seeds: %v", s.Seeds())
	}
	if _, err := ParseSpec([]byte(`{"protocol":"majority","n":1024,"horizont":5}`)); err == nil ||
		!strings.Contains(err.Error(), "horizont") {
		t.Fatalf("typoed field accepted: %v", err)
	}
	if _, err := ParseSpec([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestSpecBatchTier pins the batch knob's canonicalization and threading:
// "auto" collapses to the empty field (historical cache keys unchanged),
// "on"/"off" survive and reach the built SystemSpec.
func TestSpecBatchTier(t *testing.T) {
	for _, tc := range []struct {
		in, canon string
		mode      popsim.BatchMode
	}{
		{"", "", popsim.BatchAuto},
		{"auto", "", popsim.BatchAuto},
		{"on", "on", popsim.BatchOn},
		{"off", "off", popsim.BatchOff},
	} {
		s := &Spec{Protocol: "majority", N: 1024, Batch: tc.in}
		if err := s.Normalize(); err != nil {
			t.Fatalf("batch %q: %v", tc.in, err)
		}
		if s.Batch != tc.canon {
			t.Errorf("batch %q canonicalized to %q, want %q", tc.in, s.Batch, tc.canon)
		}
		if s.BatchValue() != tc.mode {
			t.Errorf("batch %q: BatchValue %v, want %v", tc.in, s.BatchValue(), tc.mode)
		}
		spec, _, err := s.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		if spec.CountBatch != tc.mode {
			t.Errorf("batch %q: built CountBatch %v, want %v", tc.in, spec.CountBatch, tc.mode)
		}
	}
}

// TestSpecBuildWorkloads compiles every registered workload × simulator into
// a SystemSpec, pinning that the declarative surface covers the same
// scenario space as cmd/ppsim's flags.
func TestSpecBuildWorkloads(t *testing.T) {
	for _, proto := range []string{"pairing", "majority", "leader", "parity", "or"} {
		for _, sim := range []string{"", "skno", "sid", "naming"} {
			model := "TW"
			if sim != "" {
				model = "IO"
			}
			s := &Spec{Protocol: proto, N: 16, Sim: sim, Model: model, O: 1}
			if err := s.Normalize(); err != nil {
				t.Fatalf("%s/%s: %v", proto, sim, err)
			}
			sysSpec, w, err := s.Build(1)
			if err != nil {
				t.Fatalf("%s/%s: %v", proto, sim, err)
			}
			if w.Name != proto || len(sysSpec.Initial) == 0 {
				t.Fatalf("%s/%s: workload %q, %d initial states", proto, sim, w.Name, len(sysSpec.Initial))
			}
			if (sysSpec.Simulate != nil) != (sim != "") {
				t.Fatalf("%s/%s: simulator wiring", proto, sim)
			}
		}
	}
}

func TestCacheLRU(t *testing.T) {
	m := NewMetrics()
	c := NewCache(2, m)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", lineFor("a"))
	c.Put("b", lineFor("b"))
	if l, ok := c.Get("a"); !ok || l.ID != "a" {
		t.Fatal("a evicted early")
	}
	c.Put("c", lineFor("c")) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU kept the stale entry")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
	if h, miss := m.CacheHits.Load(), m.CacheMisses.Load(); h != 2 || miss != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", h, miss)
	}
	// Disabled cache never stores.
	off := NewCache(0, nil)
	off.Put("a", lineFor("a"))
	if _, ok := off.Get("a"); ok || off.Len() != 0 {
		t.Fatal("disabled cache stored")
	}
}

func lineFor(id string) report.Line { return report.Line{ID: id} }
