package lint_test

import (
	"os/exec"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// TestRepoClean runs every analyzer over the repository itself, in both
// build-tag variants, and requires zero findings: the tree must stay
// lint-clean, and any new invariant violation fails `go test ./...`
// before it ever reaches CI. It is also the waiver ratchet: each variant
// must carry exactly its committed number of waiver directives. Lower
// the baseline when a waiver goes; raising it needs a justification in
// the change that does so. The scanoracle variant's scan stages carry two
// more than the default tags.
func TestRepoClean(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flags   []string
		waivers int
	}{
		{name: "default", flags: nil, waivers: 39},
		{name: "scanoracle", flags: []string{"-tags=scanoracle"}, waivers: 41},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset, pkgs, err := analysis.Load(analysis.Config{Dir: "../..", BuildFlags: tc.flags}, "./...")
			if err != nil {
				t.Fatalf("loading repo: %v", err)
			}
			diags, err := analysis.Run(fset, pkgs, lint.Analyzers())
			if err != nil {
				t.Fatalf("running analyzers: %v", err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s [%s]", fset.Position(d.Pos), d.Message, d.Analyzer)
			}
			if n := lint.CountWaivers(fset, pkgs); n != tc.waivers {
				t.Errorf("%d waiver directives, baseline %d: remove waivers rather than raise the baseline, and lower it when one goes", n, tc.waivers)
			}
		})
	}
}

// TestVplintExitsZero drives the real cmd/vplint binary the way CI does
// and requires a clean exit — the module-level acceptance check.
func TestVplintExitsZero(t *testing.T) {
	cmd := exec.Command("go", "run", "./cmd/vplint", "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/vplint ./... failed: %v\n%s", err, out)
	}
}
