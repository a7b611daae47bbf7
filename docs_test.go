package repro

import (
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// docAllow lists the backticked names the docs may use that no Go
// source declares, each with the reason. An entry the scan no longer
// finds fails too.
var docAllow = map[string]string{
	"BENCH_GATE_THRESHOLD": "the environment variable that sets the bench-regression gate's threshold",
	"bits.TrailingZeros":   "the standard library's math/bits function, which the source calls as TrailingZeros32",
	"L":                    "a length in the AllReduce move-count formula",
	"SpMV3DHalo":           "the pre-compiler kernel that Spec7Point replaced, named as history",
	"SpecMyKernel":         "the extension guide's placeholder for a new spec constructor",
	"WxH":                  "the placeholder of a wafer-grid flag value",
}

// docIdent matches a backticked Go identifier path ("Name", "pkg.Name",
// "Type.Method", "pkg.Type.Field"), optionally dereferenced ("*") or
// called ("()"): the spans the docs use to name code.
var docIdent = regexp.MustCompile("`\\*?((?:[A-Za-z_][A-Za-z0-9_]*\\.)*[A-Za-z_][A-Za-z0-9_]*)(?:\\(\\))?`")

// TestArchDocNames fails when README, ARCHITECTURE, CONTRIBUTING
// or cmd/README names, in backticks, an exported identifier that no Go
// source of either module declares (tests included), so a rename or a
// deletion cannot leave the docs naming code that is gone. The last
// part of the name must be declared somewhere: as a Go name, as a
// benchmark's name without its Benchmark prefix, or as a
// standard-library name the source uses. Names TestArchLayering keeps
// undeclared may be named, to say so. Fenced code blocks hold commands
// and are skipped; docs/RESULTS.md and CHANGES.md are history and are
// not scanned.
func TestArchDocNames(t *testing.T) {
	tree := loadArch(t)
	declared := map[string]bool{}
	for id := range tree.info.Defs {
		declared[id.Name] = true
		declared[strings.TrimPrefix(id.Name, "Benchmark")] = true
	}
	for _, obj := range tree.info.Uses {
		if pkg := obj.Pkg(); pkg != nil && tree.byPath[pkg.Path()] == nil {
			declared[obj.Name()] = true // a standard-library object the source uses
		}
	}
	found := map[string]bool{}
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", "CONTRIBUTING.md", "cmd/README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, m := range docIdent.FindAllStringSubmatch(line, -1) {
				last := m[1][strings.LastIndexByte(m[1], '.')+1:]
				if !token.IsExported(last) || archGone[last] {
					continue
				}
				if !declared[last] {
					found[m[1]] = true
					if _, allowed := docAllow[m[1]]; !allowed {
						t.Errorf("%s:%d: `%s` names code that no Go source declares", doc, i+1, m[1])
					}
				}
			}
		}
	}
	for k := range docAllow {
		if !found[k] {
			t.Errorf("docAllow entry %s is no longer found; remove it", k)
		}
	}
}
