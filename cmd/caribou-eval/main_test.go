package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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

// TestQuickFig7UntapedByteIdentical builds the binary and drives it the
// way a user does: the quick Fig 7 run must print the same bytes on the
// default evaluation path and on the untaped reference path, and an eval
// mode that does not exist must be refused with the accepted value named.
func TestQuickFig7UntapedByteIdentical(t *testing.T) {
	run := buildEval(t)

	def, stderr, err := run("-quick", "fig7")
	if err != nil {
		t.Fatalf("-quick fig7: %v\n%s", err, stderr)
	}
	if len(def) == 0 {
		t.Fatal("-quick fig7 printed nothing")
	}
	untaped, stderr, err := run("-quick", "-eval-mode", "untaped", "fig7")
	if err != nil {
		t.Fatalf("-eval-mode untaped: %v\n%s", err, stderr)
	}
	if !bytes.Equal(def, untaped) {
		t.Errorf("stdout differs between the default and untaped eval modes:\n--- default\n%s\n--- untaped\n%s", def, untaped)
	}

	stdout, stderr, err := run("-quick", "-eval-mode", "nobatch", "fig7")
	if err == nil {
		t.Fatalf("-eval-mode nobatch accepted:\n%s", stdout)
	}
	if !strings.Contains(string(stderr), "untaped") {
		t.Errorf("stderr does not name the accepted eval mode: %q", stderr)
	}
}

// TestSingleInstantExperimentGoldens pins the four experiments that price
// single plans at single instants through Estimator.Estimate. The goldens
// under testdata/ were recorded while that call still ran the per-event
// map sampler; it is now a one-instant Snapshot, which moves a carbon mean
// by summation order only (≤ 1e-9 relative), so the three printed decimals
// must not move. The same loop pins the two experiments driven by the
// Deployment Manager's tick loop, fig11 and ext-shift, whose goldens were
// recorded while Manager still carried its own copy of the token-bucket
// decision; it now drives the shared Stream, and no solve time, overhead
// or offload share may move.
func TestSingleInstantExperimentGoldens(t *testing.T) {
	run := buildEval(t)
	for _, name := range []string{"ext-global", "ext-temporal", "ext-signal", "ablate-solver", "fig11", "ext-shift"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+"-quick.golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range [][]string{nil, {"-eval-mode", "untaped"}} {
			args := append(append([]string{"-quick"}, mode...), name)
			got, stderr, err := run(args...)
			if err != nil {
				t.Fatalf("caribou-eval %v: %v\n%s", args, err, stderr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("caribou-eval %v: stdout differs from testdata/%s-quick.golden:\n--- got\n%s--- want\n%s", args, name, got, want)
			}
		}
	}
}
