// Command geolint runs the repository's static-analysis rules (package
// internal/analysis) over the module and prints findings with file:line
// positions and rule IDs. It exits non-zero when any finding survives the
// //geolint:ignore directives, which is how CI gates merges.
//
// Usage:
//
//	go run ./cmd/geolint ./...                # whole module
//	go run ./cmd/geolint ./internal/...      # one subtree (skips deadcode)
//	go run ./cmd/geolint -rules              # list the rules
//	go run ./cmd/geolint -json ./...         # machine-readable findings
//	go run ./cmd/geolint -staleignores ./... # also report unused ignores
//	go run ./cmd/geolint -only detcheck,locksafe ./...  # run a subset
//	go run ./cmd/geolint -skip mapiter ./...            # run all but some
//
// The plain-text output ("path:line:col: rule: message") matches the
// GitHub Actions problem matcher in .github/geolint-matcher.json, so CI
// findings surface as PR diff annotations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"geoprocmap/internal/analysis"
	"geoprocmap/internal/buildinfo"
)

// jsonFinding is the -json wire format, one object per finding.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	listRules := flag.Bool("rules", false, "list the rules and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	staleIgnores := flag.Bool("staleignores", false, "also report //geolint:ignore directives that suppress nothing")
	only := flag.String("only", "", "comma-separated rule IDs to run exclusively (unknown IDs are an error)")
	skip := flag.String("skip", "", "comma-separated rule IDs to leave out (unknown IDs are an error)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: geolint [-rules] [-json] [-staleignores] [-only ids] [-skip ids] [-version] [patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Version("geolint"))
		return
	}

	all := analysis.DefaultRules()
	if *listRules {
		for _, r := range all {
			fmt.Printf("%-14s %s\n", r.ID(), r.Doc())
		}
		return
	}
	// Rule selection: ignore directives keep being validated against the
	// full rule set, so a justified ignore for a deselected rule is not
	// misreported as unknown.
	known := map[string]bool{}
	for _, r := range all {
		known[r.ID()] = true
	}
	rules, err := analysis.SelectRules(all, splitIDs(*only), splitIDs(*skip))
	if err != nil {
		fmt.Fprintln(os.Stderr, "geolint:", err)
		os.Exit(2)
	}
	// -staleignores stays authoritative on a scoped run: deselected rules
	// still execute for suppression accounting (their findings are
	// dropped), so an ignore directive that suppresses nothing is
	// reported stale even when -only excludes its rule.
	var usage []analysis.Rule
	if *staleIgnores {
		selected := map[string]bool{}
		for _, r := range rules {
			selected[r.ID()] = true
		}
		for _, r := range all {
			if !selected[r.ID()] {
				usage = append(usage, r)
			}
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "geolint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	passes, err := analysis.Load(analysis.Config{Root: root, Patterns: patterns})
	if err != nil {
		fmt.Fprintln(os.Stderr, "geolint:", err)
		os.Exit(2)
	}
	if len(passes) == 0 {
		fmt.Fprintf(os.Stderr, "geolint: no packages match %v\n", patterns)
		os.Exit(2)
	}
	// Surface reduced typed-rule coverage, but do not fail on it: go build
	// is the authority on compilability and runs alongside geolint in CI.
	for _, p := range passes {
		if len(p.TypeErrors) > 0 {
			fmt.Fprintf(os.Stderr, "geolint: warning: %s: %d type-check issue(s); typed rules may have reduced coverage (first: %v)\n",
				p.Path, len(p.TypeErrors), p.TypeErrors[0])
		}
	}
	findings := analysis.RunWith(passes, rules, analysis.RunOptions{StaleIgnores: *staleIgnores, KnownRules: known, UsageRules: usage})
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:    relTo(root, f.Pos.Filename),
				Line:    f.Pos.Line,
				Column:  f.Pos.Column,
				Rule:    f.Rule,
				Message: f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "geolint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", relTo(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "geolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// splitIDs parses a comma-separated rule-ID list, dropping empty items.
func splitIDs(s string) []string {
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// relTo shortens path relative to root when possible.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil {
		return rel
	}
	return path
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
