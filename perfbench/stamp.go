package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// stampFor describes the host and the code a result was measured on.
// commit comes from the build's VCS stamp when the checkout is a git
// repository, with "+dirty" for uncommitted changes; source_sha256
// identifies the measured sources either way.
func stampFor(cfg config) map[string]any {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit + dirty,
		"source_sha256": sourceHash(),
	}
}

// sourceHash fingerprints the program the benchmark builds: go.mod and
// every Go file under internal/, read from the working directory (the
// repository root). It returns "" when they are not there.
func sourceHash() string {
	h := sha256.New()
	files := []string{"go.mod"}
	_ = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return ""
		}
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return ""
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
