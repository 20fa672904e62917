package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"popsim/internal/report"
)

func testServer(t *testing.T, opts Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(opts)
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv, m
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollDone(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerEndToEnd drives the full HTTP flow the CI smoke test scripts:
// submit a counts-backend majority job, poll to completion, read the result
// stream, resubmit and observe the cache hit in /metrics.
func TestServerEndToEnd(t *testing.T) {
	srv, _ := testServer(t, Options{Workers: 2, QueueCap: 8})

	// Health first.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	spec := `{"protocol":"or","n":65536,"seed":5}`
	sub := postJSON(t, srv.URL+"/jobs", spec)
	if sub.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(sub.Body)
		t.Fatalf("submit: %d %s", sub.StatusCode, b)
	}
	st := decodeStatus(t, sub)
	if st.ID == "" || st.Runs != 1 {
		t.Fatalf("submit status: %+v", st)
	}
	final := pollDone(t, srv.URL, st.ID, 60*time.Second)
	if final.State != JobDone || final.Passed != 1 {
		t.Fatalf("final: %+v", final)
	}

	// The stream replays the completed run in the pinned JSON-lines schema.
	resp, err = http.Get(srv.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []report.Line
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l report.Line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		// Cross-check: the stream uses the exact schema `experiments -json`
		// pins — same keys, nothing extra.
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		for k := range raw {
			switch k {
			case "id", "claim", "pass", "seed", "quick", "notes", "tables":
			default:
				t.Fatalf("stream line carries unknown key %q", k)
			}
		}
		lines = append(lines, l)
	}
	if len(lines) != 1 || !lines[0].Pass || lines[0].Seed != 5 {
		t.Fatalf("stream lines: %+v", lines)
	}

	// Resubmit: new job, served from cache, visible in /metrics.
	sub2 := postJSON(t, srv.URL+"/jobs", spec)
	st2 := decodeStatus(t, sub2)
	if st2.ID == st.ID {
		t.Fatal("job ID reused")
	}
	pollDone(t, srv.URL, st2.ID, 30*time.Second)
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.CacheHits < 1 || snap.CacheHitRate <= 0 || snap.JobsDone != 2 || snap.Interactions == 0 {
		t.Fatalf("metrics: %+v", snap)
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	srv, _ := testServer(t, Options{Workers: 1, QueueCap: 2})
	for _, body := range []string{
		`{"protocol":"warp","n":8}`,
		`{"protocol":"majority","n":1}`,
		`{"protocol":"majority","n":8,"bogus_knob":1}`,
		`{"protocol":"or","n":64,"omission_rate":0.1}`, // TW admits no omissions
		`{{{`,
	} {
		resp := postJSON(t, srv.URL+"/jobs", body)
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || eb.Error == "" {
			t.Fatalf("body %s: status %d, error %q", body, resp.StatusCode, eb.Error)
		}
	}
	resp, err := http.Get(srv.URL + "/jobs/j999-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

// TestServerBackpressure checks the 429 + Retry-After contract when the
// queue is full.
func TestServerBackpressure(t *testing.T) {
	srv, _ := testServer(t, Options{Workers: 1, QueueCap: 1, CheckpointEvery: 1 << 16})
	blocker := `{"protocol":"majority","n":1048576,"backend":"counts","seed":1}`
	if resp := postJSON(t, srv.URL+"/jobs", blocker); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: %d", resp.StatusCode)
	}
	small := `{"protocol":"majority","n":64,"seed":2}`
	if resp := postJSON(t, srv.URL+"/jobs", small); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue slot: %d", resp.StatusCode)
	}
	resp := postJSON(t, srv.URL+"/jobs", small)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestServerStreamFollowsLive subscribes to the stream before the job
// finishes and checks lines arrive as seeds complete.
func TestServerStreamFollowsLive(t *testing.T) {
	srv, _ := testServer(t, Options{Workers: 1, QueueCap: 2, SeedWorkers: 1})
	sub := postJSON(t, srv.URL+"/jobs", `{"protocol":"or","n":256,"runs":4,"seed":3}`)
	st := decodeStatus(t, sub)
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body) // returns when the job is terminal
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.Count(data, []byte("\n"))
	if got != 4 {
		t.Fatalf("streamed %d lines, want 4: %s", got, data)
	}
}

// TestServerCancelAndResume exercises POST cancel/resume round trips.
func TestServerCancelAndResume(t *testing.T) {
	testServerCancelResume(t, `{"protocol":"or","n":1048576,"backend":"counts","seed":9}`)
}

// TestServerCancelAndResumeBatch is the same round trip on the
// collision-aware batch tier: the checkpoint parks at a run boundary and the
// resumed job continues the batch dynamics bit-identically.
func TestServerCancelAndResumeBatch(t *testing.T) {
	testServerCancelResume(t, `{"protocol":"or","n":1048576,"backend":"counts","batch":"on","seed":9}`)
}

func testServerCancelResume(t *testing.T, submit string) {
	t.Helper()
	srv, _ := testServer(t, Options{Workers: 1, QueueCap: 2, DisableCache: true, CheckpointEvery: 1 << 17})
	sub := postJSON(t, srv.URL+"/jobs", submit)
	st := decodeStatus(t, sub)

	// Wait for the first periodic checkpoint, then cancel.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		cur := decodeStatus(t, resp)
		if len(cur.Checkpoints) > 0 || cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := postJSON(t, srv.URL+"/jobs/"+st.ID+"/cancel", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	final := pollDone(t, srv.URL, st.ID, 60*time.Second)
	if final.State == JobInterrupted {
		if resp := postJSON(t, srv.URL+"/jobs/"+st.ID+"/resume", ""); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("resume: %d", resp.StatusCode)
		}
		final = pollDone(t, srv.URL, st.ID, 120*time.Second)
	}
	if final.State != JobDone || final.Passed != 1 {
		t.Fatalf("after resume: %+v", final)
	}
	// Resume of a done job conflicts.
	resp := postJSON(t, srv.URL+"/jobs/"+st.ID+"/resume", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume done job: %d, want 409", resp.StatusCode)
	}
}
