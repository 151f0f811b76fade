package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIGoldens builds the developer CLI and drives it the way a user
// does. The adaptive run covers the whole control loop (manager → solver
// → deployer → executor, with plan switches and removed deployments); the
// solve prints 24 hourly plans. Both must print the bytes under testdata/,
// which were generated before the simulator's hot path was rewritten: a
// difference means the draws, the event order or the accounting moved.
func TestCLIGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "caribou")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr []byte, exit int) {
		t.Helper()
		var so, se bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &so, &se
		err := cmd.Run()
		var ee *exec.ExitError
		switch {
		case err == nil:
		case errors.As(err, &ee):
			exit = ee.ExitCode()
		default:
			t.Fatalf("caribou %v: %v", args, err)
		}
		return so.Bytes(), se.Bytes(), exit
	}

	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"run-adaptive-text2speech.golden", []string{"run", "-adaptive", "-days", "2", "-per-day", "96", "text2speech-censoring"}},
		{"solve-image-processing.golden", []string{"solve", "-days", "1", "-per-day", "96", "image-processing"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		got, stderr, exit := run(tc.args...)
		if exit != 0 {
			t.Fatalf("caribou %v: exit %d\n%s", tc.args, exit, stderr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("caribou %v: stdout differs from testdata/%s:\n--- got\n%s--- want\n%s", tc.args, tc.golden, got, want)
		}
	}

	for _, cmd := range []string{"run", "solve"} {
		_, stderr, exit := run(cmd, "no-such-workflow")
		if exit != 1 || !strings.Contains(string(stderr), `"no-such-workflow"`) {
			t.Errorf("caribou %s no-such-workflow: exit %d, stderr %q; want exit 1 naming the workflow", cmd, exit, stderr)
		}
	}
	if _, stderr, exit := run(); exit != 2 || !strings.Contains(string(stderr), "usage: caribou") {
		t.Errorf("caribou with no arguments: exit %d, stderr %q; want exit 2 and the usage text", exit, stderr)
	}
}
