// brisa-lint is the multichecker for the determinism lint suite: four
// go/analysis-style passes (maporder, unseededmap, walltime, globalrand)
// that mechanically enforce the worker-count-invariance contract over the
// deterministic packages (internal/core, internal/simnet,
// internal/hyparview, internal/cyclon, internal/stats, internal/baselines
// and its simpletree, simplegossip and tag subpackages, and experiments).
//
// Usage:
//
//	brisa-lint [packages]
//
// Patterns follow the go tool shapes ("./...", "./internal/...",
// "internal/core"), resolved against the enclosing module root; with no
// arguments it checks "./...". Exit status: 0 clean, 1 findings, 2 errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint/brisalint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: brisa-lint [packages]\n\nanalyzers:\n")
		for _, a := range brisalint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "brisa-lint: %v\n", err)
		os.Exit(2)
	}
	findings, err := brisalint.Run(root, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "brisa-lint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "brisa-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
