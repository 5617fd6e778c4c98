// Command lintmetrics enforces the repo's metric-name contract
// (DESIGN.md §10): every series registered in code follows the grr_*
// snake_case convention, is documented in DESIGN.md's catalog, and —
// in the other direction — every name the catalog documents still
// exists in code. Run as `make lint-metrics`; it exits non-zero with
// one line per violation.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// namePat matches a metric base name wherever it appears: in a
// registration string literal (labels follow a '{' and are not part of
// the base name) or in prose.
var namePat = regexp.MustCompile(`grr_[a-z0-9_]*[a-z0-9]`)

// wellFormed is the convention itself: grr_ prefix, lowercase
// snake_case, no leading/trailing/doubled underscores.
var wellFormed = regexp.MustCompile(`^grr_[a-z0-9]+(_[a-z0-9]+)*$`)

// labelled matches a base name together with its label block, so the
// block's syntax can be checked as a unit.
var labelled = regexp.MustCompile(`grr_[a-z0-9_]*[a-z0-9]\{[^}` + "`" + `]*\}?`)

// wellFormedLabels is the label-block convention (the same one
// obs.Registry enforces at runtime): snake_case keys, double-quoted
// values, comma-separated. The fleet's per-state node gauges are the
// first labelled series registered outside internal/server, so the
// lint covers them statically too.
var wellFormedLabels = regexp.MustCompile(`^\{[a-z][a-z0-9_]*="[^"{}]*"(, ?[a-z][a-z0-9_]*="[^"{}]*")*\}$`)

// requiredPrefixes are metric families a subsystem contract depends
// on: the tail-latency contract (DESIGN §14) is only observable if at
// least one move and one deadline series exist in code and in the §10
// catalog. A refactor that renames a family away entirely fails here
// even though name-by-name cross-checking would stay green.
var requiredPrefixes = []string{"grr_fleet_moves_", "grr_deadline_"}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}

	inCode, badLabels, err := collectFromSource(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintmetrics:", err)
		os.Exit(1)
	}
	inDocs, err := collectFromFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintmetrics:", err)
		os.Exit(1)
	}

	var bad []string
	bad = append(bad, badLabels...)
	for name := range inCode {
		if !wellFormed.MatchString(name) {
			bad = append(bad, fmt.Sprintf("%s: malformed (want grr_ prefix, lowercase snake_case)", name))
		}
		if !inDocs[name] {
			bad = append(bad, fmt.Sprintf("%s: registered in code but missing from the DESIGN.md §10 catalog", name))
		}
	}
	for name := range inDocs {
		if !inCode[name] {
			bad = append(bad, fmt.Sprintf("%s: documented in DESIGN.md but registered nowhere in code", name))
		}
	}
	for _, prefix := range requiredPrefixes {
		for where, set := range map[string]map[string]bool{"code": inCode, "the DESIGN.md §10 catalog": inDocs} {
			found := false
			for name := range set {
				if strings.HasPrefix(name, prefix) {
					found = true
					break
				}
			}
			if !found {
				bad = append(bad, fmt.Sprintf("%s*: required metric family has no series in %s", prefix, where))
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "lintmetrics:", b)
		}
		os.Exit(1)
	}
	fmt.Printf("lintmetrics: %d metric names consistent between code and DESIGN.md\n", len(inCode))
}

// collectFromSource gathers metric base names from every non-test .go
// file under cmd/ and internal/, and checks the label syntax of any
// complete label block it can see. Scanning text rather than the AST
// keeps concatenated registrations (labelled series built in loops)
// visible: only the base name before '{' matters for the catalog, and
// a block interrupted by concatenation or prose ellipsis is skipped
// rather than misjudged.
func collectFromSource(root string) (names map[string]bool, badLabels []string, err error) {
	names = make(map[string]bool)
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range namePat.FindAllString(string(data), -1) {
				names[m] = true
			}
			for _, m := range labelled.FindAllString(string(data), -1) {
				block := m[strings.IndexByte(m, '{'):]
				if !strings.HasSuffix(block, "}") || strings.Contains(block, "...") {
					continue // built by concatenation, or prose shorthand
				}
				if !wellFormedLabels.MatchString(block) {
					rel, _ := filepath.Rel(root, path)
					badLabels = append(badLabels,
						fmt.Sprintf(`%s: malformed label block in %s (want {key="value", ...}, snake_case keys)`, m, rel))
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return names, badLabels, nil
}

func collectFromFile(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool)
	for _, m := range namePat.FindAllString(string(data), -1) {
		names[m] = true
	}
	return names, nil
}
