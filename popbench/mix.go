package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"popsim/internal/report"
	"popsim/internal/serve"
)

// popsimd-mix: the built cmd/popsimd on loopback, driven as a closed loop by
// mixClients clients. Each client submits its next job only after the
// previous one's /jobs/{id}/stream has closed.

const (
	mixClients = 2 // = nproc of the reference host
	// The server runs mixClients jobs at a time, one seed each, so the
	// server never has more than nproc goroutines simulating.
	mixWorkers     = 2
	mixSeedWorkers = 1
)

type itemKind int

const (
	kindCold    itemKind = iota // first submission of a spec and seed
	kindRef                     // uninterrupted reference for a resume item
	kindHit                     // resubmission of an earlier cold item
	kindResume                  // cancelled after its first checkpoint, resumed
	kindInvalid                 // must be refused with a 4xx at submit
)

// mixItem is one submission of a client's round.
type mixItem struct {
	kind itemKind
	doc  string
	// of names the earlier item whose steps this one must reproduce
	// (the cold original of a hit, the reference of a resume).
	of int
}

// mixRound is one client's item list for one round. Its composition is
// fixed; the seed picks every job's RNG seed and the rotating invalid shape.
// Round 0 also carries the one n = 2²⁴ counts job of each client.
func mixRound(seed int64, round, client int) []mixItem {
	s := func(i int) int64 { return subSeed(seed, round, client, i) }
	or := func(n, runs, horizon int, i int) string {
		return fmt.Sprintf(`{"protocol":"or","n":%d,"runs":%d,"horizon":%d,"seed":%d}`, n, runs, horizon, s(i))
	}
	skno := fmt.Sprintf(`{"protocol":"pairing","sim":"skno","o":1,"model":"I3","n":8,"omission_rate":0.02,"omission_budget":1,"backend":"vector","horizon":20000000,"seed":%d}`, s(4))
	cycle := fmt.Sprintf(`{"protocol":"or","topology":"cycle","n":512,"seed":%d}`, s(6))
	invalid := []string{
		`{"protocol":"nosuch","n":64}`,
		`{"protocol":"or","n":1}`,
		`{"protocol":"or","n":64,"bogus":1}`,
		`{"protocol":"or","n":64,"model":"XX"}`,
	}
	items := []mixItem{
		0: {kind: kindCold, doc: or(1<<16, 2, 64<<16, 0)},
		1: {kind: kindCold, doc: or(1<<18, 1, 64<<18, 1)},
		// The resume item's reference differs from it only in the horizon,
		// which both runs stay far below, so both follow the same path.
		2:  {kind: kindRef, doc: or(1<<20, 1, 64<<20+1, 2)},
		3:  {kind: kindResume, doc: or(1<<20, 1, 64<<20, 2), of: 2},
		4:  {kind: kindCold, doc: skno},
		5:  {kind: kindCold, doc: fmt.Sprintf(`{"protocol":"majority","sim":"sid","model":"IO","n":16,"runs":2,"backend":"vector","horizon":20000000,"seed":%d}`, s(5))},
		6:  {kind: kindCold, doc: cycle},
		7:  {kind: kindCold, doc: fmt.Sprintf(`{"protocol":"or","topology":"regular:4","n":4096,"seed":%d}`, s(7))},
		8:  {kind: kindHit, doc: or(1<<16, 2, 64<<16, 0), of: 0},
		9:  {kind: kindHit, doc: skno, of: 4},
		10: {kind: kindHit, doc: cycle, of: 6},
		// A small share of invalid specs: every other round a shape
		// Normalize refuses, else the known gap — omission_rate under the
		// non-omissive default model TW passes Normalize, then the job fails
		// at its first omissive interaction.
		11: {kind: kindInvalid, doc: invalid[s(11)%int64(len(invalid))]},
	}
	if round%2 == 1 {
		items[11].doc = fmt.Sprintf(`{"protocol":"or","n":64,"omission_rate":0.05,"seed":%d}`, s(11))
	}
	if round == 0 {
		items = append(items, mixItem{kind: kindCold, doc: or(1<<24, 1, 64<<24, 12)})
	}
	return items
}

// mixServer is one spawned popsimd process.
type mixServer struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	log    *os.File
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns popsimd and returns once /readyz answers 200.
func startServer(bin, logPath string) (*mixServer, error) {
	if bin == "" {
		return nil, errors.New("popsimd-mix needs -popsimd")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(mixWorkers),
		"-seed-workers", strconv.Itoa(mixSeedWorkers), "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &mixServer{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients,
		}},
		exited: make(chan struct{}),
		log:    logf,
	}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("popsimd exited before ready (log: %s)", logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("popsimd not ready within 30s")
		}
	}
}

// stop sends SIGTERM and waits for the process, killing it after 10 s.
func (s *mixServer) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
	s.log.Close()
}

// call performs one request and decodes a JSON answer into out (if non-nil).
func (s *mixServer) call(tr *tracer, parent int, scope, method, path string, body []byte, out any) (int, error) {
	id := tr.begin("http."+method+" "+routeOf(path), "", scope, parent)
	defer tr.end(id)
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// routeOf replaces the job id of a path by {id}, for span names.
func routeOf(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 2 && parts[1] == "jobs" {
		parts[2] = "{id}"
	}
	return strings.Join(parts, "/")
}

// stream follows /jobs/{id}/stream until the server closes it and returns
// the result lines (progress frames skipped).
func (s *mixServer) stream(tr *tracer, parent int, scope, id string) ([]report.Line, error) {
	sid := tr.begin("http.GET /jobs/{id}/stream", "", scope, parent)
	defer tr.end(sid)
	resp, err := s.client.Get(s.base + "/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	var lines []report.Line
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"progress"`)) {
			continue
		}
		var l report.Line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// mixSamples collects one phase's client-side measurements; clients append
// under mu.
type mixSamples struct {
	mu                        sync.Mutex
	ph                        *phase
	submit, cold, hit, resume []float64
	overhead, ckBytes         []float64
}

func (m *mixSamples) add(dst *[]float64, v float64) {
	m.mu.Lock()
	*dst = append(*dst, v)
	m.mu.Unlock()
}

// outcome records one item's verdict: ok, a miss, or a wrong result.
func (m *mixSamples) outcome(missMsg, wrongMsg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ph.attempted++
	switch {
	case wrongMsg != "":
		m.ph.wrongOutcome("%s", wrongMsg)
	case missMsg != "":
		m.ph.miss("%s", missMsg)
	}
}

// stepsOf extracts the per-seed steps of a job's result lines.
func stepsOf(lines []report.Line) map[int64]string {
	out := make(map[int64]string, len(lines))
	for _, l := range lines {
		for _, note := range l.Notes {
			if v, ok := strings.CutPrefix(note, "steps="); ok {
				out[l.Seed] = v
			}
		}
	}
	return out
}

// runClient drives one client's rounds as a closed loop.
func runClient(s *mixServer, tr *tracer, m *mixSamples, seed int64, rounds, client int) error {
	for r := 0; r < rounds; r++ {
		items := mixRound(seed, r, client)
		steps := make([]map[int64]string, len(items))
		for i, it := range items {
			scope := fmt.Sprintf("c%d/r%d/i%d", client, r, i)
			var err error
			steps[i], err = runItem(s, tr, m, scope, it, steps)
			if err != nil {
				return fmt.Errorf("%s: %w", scope, err)
			}
		}
	}
	return nil
}

// runItem submits one item, waits for its stream to close and checks it.
// It returns the job's per-seed steps for later hits and resumes.
func runItem(s *mixServer, tr *tracer, m *mixSamples, scope string, it mixItem, prior []map[int64]string) (map[int64]string, error) {
	jid := tr.begin("job", "", scope, 0)
	defer tr.end(jid)
	start := time.Now()
	var st serve.JobStatus
	code, err := s.call(tr, jid, scope, "POST", "/jobs", []byte(it.doc), &st)
	if err != nil {
		return nil, err
	}
	m.add(&m.submit, time.Since(start).Seconds())
	if code == http.StatusTooManyRequests {
		m.outcome(scope+": refused (429)", "")
		return nil, nil
	}
	if it.kind == kindInvalid {
		if code >= 400 && code < 500 {
			m.outcome("", "")
			return nil, nil
		}
		if code != http.StatusAccepted {
			m.outcome("", fmt.Sprintf("%s: invalid spec answered %d", scope, code))
			return nil, nil
		}
		// Accepted although invalid: follow it to its end, count a miss.
		if _, err := s.stream(tr, jid, scope, st.ID); err != nil {
			return nil, err
		}
		m.outcome(fmt.Sprintf("%s: invalid spec accepted (202) instead of a 4xx: %s", scope, it.doc), "")
		return nil, nil
	}
	if code != http.StatusAccepted {
		m.outcome("", fmt.Sprintf("%s: valid spec answered %d", scope, code))
		return nil, nil
	}
	var resumedAt time.Time
	if it.kind == kindResume {
		resumed, err := s.interrupt(tr, jid, m, scope, st.ID)
		if err != nil {
			return nil, err
		}
		if resumed {
			resumedAt = time.Now()
			code, err := s.call(tr, jid, scope, "POST", "/jobs/"+st.ID+"/resume", nil, nil)
			if err != nil {
				return nil, err
			}
			switch code {
			case http.StatusAccepted:
			case http.StatusTooManyRequests:
				m.outcome(scope+": resume refused (429)", "")
				return nil, nil
			default:
				m.outcome("", fmt.Sprintf("%s: resume answered %d", scope, code))
				return nil, nil
			}
		}
	}
	lines, err := s.stream(tr, jid, scope, st.ID)
	if err != nil {
		return nil, err
	}
	if !resumedAt.IsZero() {
		m.add(&m.resume, time.Since(resumedAt).Seconds())
	}
	latency := time.Since(start).Seconds()
	var fin serve.JobStatus
	if _, err := s.call(tr, jid, scope, "GET", "/jobs/"+st.ID, nil, &fin); err != nil {
		return nil, err
	}
	m.add(&m.ph.jobs, latency)
	switch it.kind {
	case kindCold, kindRef:
		m.add(&m.cold, latency)
		m.add(&m.overhead, latency-fin.ElapsedSec)
	case kindHit:
		m.add(&m.hit, latency)
		m.add(&m.overhead, latency-fin.ElapsedSec)
	}
	got := stepsOf(lines)
	pass := 0
	for _, l := range lines {
		if l.Pass {
			pass++
		}
	}
	switch {
	case fin.State != serve.JobDone:
		m.outcome(fmt.Sprintf("%s: job %s ended %s: %s", scope, st.ID, fin.State, fin.Error), "")
	case len(lines) != fin.Runs || pass != fin.Runs:
		m.outcome(fmt.Sprintf("%s: %d of %d seeds passed", scope, pass, fin.Runs), "")
	case (it.kind == kindHit || it.kind == kindResume) && prior[it.of] != nil && !maps.Equal(got, prior[it.of]):
		m.outcome("", fmt.Sprintf("%s: steps %v differ from the uninterrupted run's %v", scope, got, prior[it.of]))
	default:
		m.outcome("", "")
	}
	return got, nil
}

// interrupt waits for a job's first parked checkpoint, cancels the job and
// waits (on its stream) until it is interrupted. It reports whether the job
// is interrupted, so resumable; a job that finished first is not.
func (s *mixServer) interrupt(tr *tracer, jid int, m *mixSamples, scope, id string) (bool, error) {
	for {
		var pr serve.JobProgress
		if _, err := s.call(tr, jid, scope, "GET", "/jobs/"+id+"/progress", nil, &pr); err != nil {
			return false, err
		}
		if pr.State.Terminal() {
			return pr.State == serve.JobInterrupted, nil
		}
		ck := false
		for _, sd := range pr.Seeds {
			ck = ck || sd.Probe.CheckpointSteps > 0
		}
		if ck {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.call(tr, jid, scope, "POST", "/jobs/"+id+"/cancel", nil, nil); err != nil {
		return false, err
	}
	if _, err := s.stream(tr, jid, scope, id); err != nil {
		return false, err
	}
	var st serve.JobStatus
	if _, err := s.call(tr, jid, scope, "GET", "/jobs/"+id, nil, &st); err != nil {
		return false, err
	}
	if st.State != serve.JobInterrupted {
		return false, nil
	}
	total := 0
	for _, ck := range st.Checkpoints {
		total += ck.SizeBytes
	}
	m.add(&m.ckBytes, float64(total))
	return true, nil
}

// warmMix submits one small counts job and one small vector job and waits
// for both.
func warmMix(s *mixServer, seed int64) error {
	for i, doc := range []string{
		fmt.Sprintf(`{"protocol":"or","n":262144,"seed":%d}`, subSeed(seed, -1, 0)),
		fmt.Sprintf(`{"protocol":"majority","sim":"sid","model":"IO","n":16,"backend":"vector","seed":%d}`, subSeed(seed, -1, 1)),
	} {
		var st serve.JobStatus
		code, err := s.call(nil, 0, "warm-up", "POST", "/jobs", []byte(doc), &st)
		if err != nil {
			return err
		}
		if code != http.StatusAccepted {
			return fmt.Errorf("warm-up job %d answered %d", i, code)
		}
		if _, err := s.stream(nil, 0, "warm-up", st.ID); err != nil {
			return err
		}
	}
	return nil
}

func measureMix(e *env) (*phase, error) {
	ph := &phase{layer: map[string]float64{}, preSetup: time.Since(processStart).Seconds()}
	ticks, err := readTicks()
	if err != nil {
		return nil, err
	}
	var s *mixServer
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		s, err = startServer(e.popsimd, filepath.Join(e.outDir, "popsimd.log"))
		if err != nil {
			return nil, err
		}
		if err := warmMix(s, e.seed); err != nil {
			s.stop()
			return nil, err
		}
		ph.setup = append(ph.setup, time.Since(start).Seconds())
		if k < setupRepeats-1 {
			s.stop()
		}
	}
	defer s.stop()
	if ph.setupShare, err = unstolenSince(ticks); err != nil {
		return nil, err
	}
	if ticks, err = readTicks(); err != nil {
		return nil, err
	}

	var before serve.MetricsSnapshot
	if _, err := s.call(e.tr, 0, "metrics", "GET", "/metrics", nil, &before); err != nil {
		return nil, err
	}
	m := &mixSamples{ph: ph}
	errs := make([]error, mixClients)
	var wg sync.WaitGroup
	mem := sampleRSS(s.cmd.Process.Pid, rssWindow)
	begin := time.Now()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = runClient(s, e.tr, m, e.seed, e.rounds, c)
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(begin).Seconds()
	ph.rss, err = mem.finish()
	if err := errors.Join(append(errs, err)...); err != nil {
		return nil, err
	}
	if ph.runShare, err = unstolenSince(ticks); err != nil {
		return nil, err
	}
	var after serve.MetricsSnapshot
	if _, err := s.call(e.tr, 0, "metrics", "GET", "/metrics", nil, &after); err != nil {
		return nil, err
	}
	ph.interactions = after.Interactions - before.Interactions
	ph.layer["serve.submit_s"] = median(m.submit)
	ph.layer["serve.cold_s"] = median(m.cold)
	ph.layer["serve.hit_s"] = median(m.hit)
	ph.layer["serve.resume_s"] = median(m.resume)
	ph.layer["serve.overhead_s"] = median(m.overhead)
	ph.layer["serve.checkpoint_bytes"] = median(m.ckBytes)
	if lookups := (after.CacheHits + after.CacheMisses) - (before.CacheHits + before.CacheMisses); lookups > 0 {
		ph.layer["serve.cache_hit_rate"] = float64(after.CacheHits-before.CacheHits) / float64(lookups)
	}
	ph.layer["serve.rejected"] = float64(after.JobsRejected - before.JobsRejected)
	ph.layer["serve.failed"] = float64(after.JobsFailed - before.JobsFailed)
	return ph, nil
}
