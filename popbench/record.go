package main

import (
	"debug/buildinfo"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// binaryInfo is what a built binary says about its own build.
type binaryInfo struct {
	Path     string `json:"path"`
	GoVer    string `json:"go_version"`
	Revision string `json:"vcs_revision"`
	Modified string `json:"vcs_modified"`
	PGO      string `json:"pgo"` // profile path, or "off"
}

func infoOf(path string, bi *debug.BuildInfo) binaryInfo {
	out := binaryInfo{Path: path, Revision: "unknown", Modified: "unknown", PGO: "off"}
	if bi == nil {
		return out
	}
	out.GoVer = bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.modified":
			out.Modified = s.Value
		case "-pgo":
			out.PGO = s.Value
		}
	}
	return out
}

// runRecord ties every result to the code and host that produced it.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Rounds     int            `json:"rounds"`
	GitSHA     string         `json:"git_sha"`
	CPUModel   string         `json:"cpu_model"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Binaries   []binaryInfo   `json:"binaries"`
	Samples    map[string]int `json:"samples"`
	// RawWallS is the measured phase on the wall clock; the unstolen
	// shares scale it and every other time into the reported metrics.
	RawWallS        float64 `json:"raw_wall_s"`
	UnstolenSetup   float64 `json:"unstolen_share_setup"`
	UnstolenMeasure float64 `json:"unstolen_share_measured"`
	Time            string  `json:"time"`
}

// gitSHA is the revision the go tool stamped into the binary; building
// outside a git checkout stamps none.
func gitSHA(self binaryInfo) string {
	if self.Modified == "true" {
		return self.Revision + "+modified"
	}
	return self.Revision
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeRecord writes the run record next to the spans and prints it as one
// "record:" line.
func writeRecord(path, name string, seed int64, rounds int, popsimd string, ph *phase, samples map[string]int) error {
	self, _ := debug.ReadBuildInfo()
	bins := []binaryInfo{infoOf("popbench", self)}
	if popsimd != "" {
		bi, err := buildinfo.ReadFile(popsimd)
		if err != nil {
			return fmt.Errorf("read build info of %s: %w", popsimd, err)
		}
		bins = append(bins, infoOf("popsimd", bi))
	}
	rec := runRecord{
		Workload:        name,
		Seed:            seed,
		Rounds:          rounds,
		GitSHA:          gitSHA(bins[0]),
		CPUModel:        cpuModel(),
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		Binaries:        bins,
		Samples:         samples,
		RawWallS:        ph.wall,
		UnstolenSetup:   ph.setupShare,
		UnstolenMeasure: ph.runShare,
		Time:            time.Now().UTC().Format(time.RFC3339),
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println("record:", string(buf))
	return os.WriteFile(path, buf, 0o644)
}
