package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildEval builds the binary and returns a function that runs it.
func buildEval(t *testing.T) func(args ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "caribou-eval")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(args ...string) (stdout, stderr []byte, err error) {
		var so, se bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &so, &se
		err = cmd.Run()
		return so.Bytes(), se.Bytes(), err
	}
}

// checkQuickAll runs caribou-eval with args and compares its stdout with
// testdata/all-quick.golden byte for byte. The golden was recorded before
// any change it guards; rewrite it only for a deliberate change to figure
// content, with
//
//	go run ./cmd/caribou-eval -quick -workers 1 all > cmd/caribou-eval/testdata/all-quick.golden
//
// testdata/all.golden is its full-scale twin (about 80 s on two cores), which
// CI diffs against `caribou-eval -workers 8 all`; rewrite it with
//
//	go run ./cmd/caribou-eval -workers 8 all > cmd/caribou-eval/testdata/all.golden
func checkQuickAll(t *testing.T, run func(args ...string) ([]byte, []byte, error), args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "all-quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, err := run(args...)
	if err != nil {
		t.Fatalf("caribou-eval %v: %v\n%s", args, err, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("caribou-eval %v: stdout differs from testdata/all-quick.golden at line %d", args, firstDiffLine(got, want))
	}
}

// TestSingleInstantExperimentGoldens builds the binary and drives it the way
// a user does: `-quick -workers 1 all` on the default evaluation path must
// print testdata/all-quick.golden byte for byte, which pins every exhibit,
// the single-instant experiments among them.
func TestSingleInstantExperimentGoldens(t *testing.T) {
	checkQuickAll(t, buildEval(t), "-quick", "-workers", "1", "all")
}

// TestQuickFig7UntapedByteIdentical checks that the untaped reference path
// at -workers 8 prints the same golden as the default path at -workers 1,
// fig7 and every other exhibit byte for byte, and that an eval mode that
// does not exist is refused with the accepted value named.
func TestQuickFig7UntapedByteIdentical(t *testing.T) {
	run := buildEval(t)
	checkQuickAll(t, run, "-quick", "-workers", "8", "-eval-mode", "untaped", "all")

	stdout, stderr, err := run("-quick", "-eval-mode", "nobatch", "fig7")
	if err == nil {
		t.Fatalf("-eval-mode nobatch accepted:\n%s", stdout)
	}
	if !strings.Contains(string(stderr), "untaped") {
		t.Errorf("stderr does not name the accepted eval mode: %q", stderr)
	}
}

// firstDiffLine is the 1-based line on which got and want first differ.
func firstDiffLine(got, want []byte) int {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range g {
		if i >= len(w) || !bytes.Equal(g[i], w[i]) {
			return i + 1
		}
	}
	return len(g) + 1
}

// TestHelpNamesEveryFlag checks that -h lists every flag register defines,
// so the usage text cannot drift from the flag set.
func TestHelpNamesEveryFlag(t *testing.T) {
	run := buildEval(t)
	_, help, err := run("-h")
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, help)
	}
	fs := flag.NewFlagSet("caribou-eval", flag.ContinueOnError)
	register(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile(`[\s\[]-` + regexp.QuoteMeta(f.Name) + `\b`).Match(help) {
			t.Errorf("-h does not name -%s:\n%s", f.Name, help)
		}
	})
}
