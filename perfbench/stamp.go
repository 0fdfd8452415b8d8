package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp identifies what a result measured and where. Commit and Source
// name the code, Seed the inputs; the remaining fields are the
// environment, and results are comparable only when those agree.
type stamp struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Commit is the git HEAD when the checkout is a repository, else
	// "unknown"; Source digests every Go source and go.mod file, so it
	// names the code either way.
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
}

func newStamp(b *bench, trace bool) stamp {
	return stamp{
		Workload:   b.workload,
		Seed:       b.seed,
		Seconds:    int(b.seconds.Seconds()),
		Trace:      trace,
		Commit:     gitCommit(),
		Source:     sourceDigest("."),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
	}
}

// envDiff lists the fields that make two results incomparable: a different
// toolchain, platform, processor count, workload or run shape.
func (s stamp) envDiff(o stamp) []string {
	var diffs []string
	check := func(name string, a, b any) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	check("workload", s.Workload, o.Workload)
	check("seconds", s.Seconds, o.Seconds)
	check("trace", s.Trace, o.Trace)
	check("go_version", s.GoVersion, o.GoVersion)
	check("goos", s.GOOS, o.GOOS)
	check("goarch", s.GOARCH, o.GOARCH)
	check("gomaxprocs", s.GOMAXPROCS, o.GOMAXPROCS)
	check("nproc", s.NProc, o.NProc)
	return diffs
}

func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping build output and version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(blob)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
