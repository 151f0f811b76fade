package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"caribou/internal/analysis"
)

// TestLintBinary builds the binary and drives it the way `make lint` and
// a user do: the fixture's stdout is the checked-in golden (exit 1), the
// repository's is empty (exit 0), and an unknown flag is a usage error.
// The expected bytes were recorded with PR 22's binary, whose parallel
// cached driver this command no longer has (-cache was its flag).
func TestLintBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and type-checks the module")
	}
	bin := filepath.Join(t.TempDir(), "caribou-lint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const fixture = "../../internal/analysis/testdata/lintmod"
	golden := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, tc := range []struct {
		name   string
		args   []string
		stdout []byte
		exit   int
	}{
		{"fixture text", []string{fixture}, golden("golden.txt"), 1},
		{"fixture json", []string{"-json", fixture}, golden("golden.json"), 1},
		{"repository text", []string{"../.."}, nil, 0},
		{"repository json", []string{"-json", "./..."}, []byte("[]\n"), 0},
		{"removed flag", []string{"-cache", "off", fixture}, nil, 2},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		exit := 0
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("%s: %v", tc.name, err)
			}
			exit = ee.ExitCode()
		}
		if exit != tc.exit {
			t.Errorf("%s: exit %d, want %d\nstderr: %s", tc.name, exit, tc.exit, stderr.Bytes())
		}
		if !bytes.Equal(stdout.Bytes(), tc.stdout) {
			t.Errorf("%s: stdout\n%s\nwant\n%s", tc.name, stdout.Bytes(), tc.stdout)
		}
	}
}

// TestUsageListsEveryCheck: -h names every check the suite runs, with its
// doc, and the allow meta-check, so the help is the one list of checks.
func TestUsageListsEveryCheck(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	out := buf.String()
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(out, a.Name) || !strings.Contains(out, a.Doc) {
			t.Errorf("-h does not list %s with its doc", a.Name)
		}
	}
	if !strings.Contains(out, "\n  allow ") {
		t.Error("-h does not list the allow check")
	}
}
