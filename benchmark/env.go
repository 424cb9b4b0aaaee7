package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the header of every report: enough to tell whether two
// sets of numbers may be compared.
type environment struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	GitCommit    string  `json:"git_commit"`
	GitDirty     bool    `json:"git_dirty"`
	Seed         int64   `json:"seed"`
	WindowS      float64 `json:"window_s"`
	OpenLoopRate float64 `json:"open_loop_rate_rps"`
	// Degraded marks a host with fewer than two processors: generator
	// and server then share one core and every latency measures both.
	Degraded bool `json:"degraded"`
}

func recordEnvironment(root string, seed int64, seconds float64) environment {
	env := environment{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GitCommit:    "unknown", // a checkout need not be a git repository
		Seed:         seed,
		WindowS:      seconds,
		OpenLoopRate: openLoopRate,
		Degraded:     runtime.NumCPU() < 2,
	}
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		env.GitCommit = out
		if status, err := gitOutput(root, "status", "--porcelain"); err == nil {
			env.GitDirty = status != ""
		}
	}
	return env
}

func gitOutput(root string, args ...string) (string, error) {
	// Only a .git directly in root counts: git would otherwise walk up
	// and describe whatever repository happens to contain the checkout.
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "", err
	}
	cmd := exec.Command("git", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
