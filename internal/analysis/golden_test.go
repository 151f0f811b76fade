package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// lintmodDir is the seeded golden module: one wallclock call two levels
// below an exported solver function (wallclock, at the sink), one
// post-Store mutation in controlplane (atomicpub), and one stale allow
// (allow) — the three regressions the acceptance criteria require the
// suite to turn red on.
const lintmodDir = "testdata/lintmod"

func lintmodRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(lintmodDir)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestDriverGoldenOutput pins both output modes byte-for-byte. Any
// change to diagnostic ordering, message wording, or formatting shows up
// here as a conscious golden update.
func TestDriverGoldenOutput(t *testing.T) {
	root := lintmodRoot(t)
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages, want 3", len(pkgs))
	}
	diags := Lint(pkgs, Analyzers())

	text := FormatText(root, diags)
	goldenText, err := os.ReadFile(filepath.Join(lintmodDir, "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text, goldenText) {
		t.Errorf("text output differs from golden.txt:\ngot:\n%s\nwant:\n%s", text, goldenText)
	}

	jsonOut, err := FormatJSON(root, diags)
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON, err := os.ReadFile(filepath.Join(lintmodDir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonOut, goldenJSON) {
		t.Errorf("json output differs from golden.json:\ngot:\n%s\nwant:\n%s", jsonOut, goldenJSON)
	}
}
