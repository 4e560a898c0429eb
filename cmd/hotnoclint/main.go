// Command hotnoclint is hotnoc's multichecker: it runs every analyzer
// in internal/lint over the requested packages and exits non-zero on
// any finding. CI and scripts/check.sh run it over ./... so the
// codebase's hard-won invariants — scrape-time lock ordering, noalloc
// hot loops, bitwise-deterministic sweep paths, never-cached errors —
// fail the build instead of waiting for a reviewer.
//
// Usage:
//
//	go run ./cmd/hotnoclint ./...
//	go run ./cmd/hotnoclint -list
//	go run ./cmd/hotnoclint -only noalloc,determinism ./internal/thermal/...
//
// Findings print as file:line:col: analyzer: message. A finding is
// suppressed by //hotnoc:allow <analyzer> <reason> on its line or the
// line above; the reason is the reviewable audit trail.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hotnoc/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the registered analyzers and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "hotnoclint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotnoclint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.LoadModule(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotnoclint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotnoclint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hotnoclint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
