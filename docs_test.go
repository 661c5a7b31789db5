package vpr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExportedAPI: every vpr.Name that README.md and docs/*.md
// mention is an exported top-level identifier of vpr.go. The docs lint
// compiles only complete Go files, so without this a code fragment or a
// prose reference naming deleted API would go stale unnoticed.
func TestDocsNameExportedAPI(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "vpr.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	api := map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				api[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					api[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						api[n.Name] = true
					}
				}
			}
		}
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`\bvpr\.([A-Z]\w*)`)
	for _, path := range append([]string{"README.md"}, docs...) {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range ref.FindAllStringSubmatch(line, -1) {
				if !api[m[1]] {
					t.Errorf("%s:%d: %s is not an exported top-level identifier of vpr.go", path, i+1, m[0])
				}
			}
		}
	}
}
