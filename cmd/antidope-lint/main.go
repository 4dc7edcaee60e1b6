// Command antidope-lint runs the determinism lint suite (internal/lint)
// together with the standard `go vet` passes over the given package
// patterns. It exits non-zero if either reports a finding.
//
// The suite has two tiers. The per-package analyzers check one package at
// a time (syntactic walltime/globalrand, mapiter, floateq, unitsuffix,
// obsguard, sortediter, errflow). The whole-program analyzers load every
// matched package into one call-graph facts layer and check global
// invariants: transitive walltime/globalrand reachability from the
// simulation roots (with the offending call chain printed), deadcode
// (functions that no main, init or package variable reaches; silent on a
// load without a main package), and the //hot:allocfree escape-analysis
// contract.
//
// Usage:
//
//	go run ./cmd/antidope-lint ./...
//	go run ./cmd/antidope-lint -vet=false ./internal/core
//	go run ./cmd/antidope-lint -json ./...               # machine output
//
// A finding is suppressed by a `//lint:allow <analyzer>` comment on the
// flagged line or the line above it; the whole-program analyzers instead
// require the comment on the declaration of the function containing the
// finding. See internal/lint.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"antidope/internal/lint"
)

func main() {
	vet := flag.Bool("vet", true, "also run the standard go vet passes")
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	program := flag.Bool("program", true, "run the whole-program analyzers (call-graph reachability, hotalloc)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.AllProgram() {
			fmt.Printf("%-12s [program] %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	vetFailed := false
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
		}
	}

	root, err := filepath.Abs(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(root, patterns)
	if err != nil {
		fatal(err)
	}

	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		if pkg.Dep {
			continue
		}
		ds, err := lint.RunPackage(pkg, lint.All())
		if err != nil {
			fatal(err)
		}
		diags = append(diags, ds...)
	}
	prog := &lint.Program{Pkgs: pkgs, Dir: root}
	if *program {
		ds, err := lint.RunProgram(prog, lint.AllProgram())
		if err != nil {
			fatal(err)
		}
		diags = append(diags, ds...)
	}

	findings := lint.ToJSON(prog.Fset(), root, diags)

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range findings {
			fmt.Println(d.String())
		}
	}
	if len(findings) > 0 || vetFailed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "antidope-lint: %v\n", err)
	os.Exit(2)
}
