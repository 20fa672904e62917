package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The serve load-test harness: end-to-end job throughput over the real HTTP
// API. CI runs these with `go test -json -bench ServeLoad` into
// BENCH_serve.json (the serve-smoke job), so the server's request→simulate→
// respond path has a recorded perf trajectory like the engine backends.

func benchSubmitAndWait(b *testing.B, url, spec string) JobStatus {
	b.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit: %d", resp.StatusCode)
	}
	for {
		resp, err := http.Get(url + "/jobs/" + st.ID)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if st.State.Terminal() {
			if st.State != JobDone {
				b.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
			}
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkServeLoadColdJobs measures cold job throughput: every iteration
// submits a distinct-seed counts-backend job over HTTP and polls it to
// completion, so each run really simulates (no cache hits).
func BenchmarkServeLoadColdJobs(b *testing.B) {
	m := NewManager(Options{Workers: 4, QueueCap: 1 << 16})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	const n = 1 << 14
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := fmt.Sprintf(`{"protocol":"or","n":%d,"backend":"counts","seed":%d}`, n, i+1)
		benchSubmitAndWait(b, srv.URL, spec)
	}
	b.StopTimer()
	snap := m.Metrics().Snapshot()
	b.ReportMetric(float64(snap.Interactions)/float64(b.N), "interactions/job")
	// The lifetime mean, not the windowed EWMA: the EWMA is clocked by its
	// reader, and a single read with no earlier sample reports 0.
	b.ReportMetric(snap.InteractionsSecLifetime, "interactions/sec")
}

// BenchmarkServeLoadCacheHits measures warm serving: one cold run primes the
// cache, then every iteration resubmits the identical scenario and is served
// from the content-addressed cache — the pure request/queue/cache overhead
// of the server.
func BenchmarkServeLoadCacheHits(b *testing.B) {
	m := NewManager(Options{Workers: 4, QueueCap: 1 << 16})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	spec := `{"protocol":"or","n":16384,"backend":"counts","seed":1}`
	benchSubmitAndWait(b, srv.URL, spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSubmitAndWait(b, srv.URL, spec)
	}
	b.StopTimer()
	snap := m.Metrics().Snapshot()
	if snap.CacheHits < int64(b.N) {
		b.Fatalf("cache hits %d < %d iterations", snap.CacheHits, b.N)
	}
	b.ReportMetric(snap.CacheHitRate, "hit-rate")
}
