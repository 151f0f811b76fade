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

// TestSubmitRunExportGolden builds the sweep CLI and drives it the way a
// user does: submit the quick Fig 7 preset into a fresh store, run it,
// export it. The export must print the bytes under testdata/, recorded
// before the exhaustive row sweep learned to screen cells — the quick
// preset's fine runs solve small spaces exhaustively, so a difference means
// a plan, a draw or the accounting moved. A second run must find every
// shard done and execute nothing, and an unknown verb must exit 2 with the
// usage text.
func TestSubmitRunExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "caribou-sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	store := t.TempDir()
	run := func(verb string, args ...string) (stdout, stderr []byte, exit int) {
		t.Helper()
		var so, se bytes.Buffer
		cmd := exec.Command(bin, append([]string{verb, "-cache-dir", store, "-name", "g"}, args...)...)
		cmd.Stdout, cmd.Stderr = &so, &se
		err := cmd.Run()
		var ee *exec.ExitError
		switch {
		case err == nil:
		case errors.As(err, &ee):
			exit = ee.ExitCode()
		default:
			t.Fatalf("caribou-sweep %s %v: %v", verb, args, err)
		}
		return so.Bytes(), se.Bytes(), exit
	}

	if _, stderr, exit := run("submit", "-figures", "fig7", "-quick"); exit != 0 || !strings.Contains(string(stderr), "28 runs in 1 shards, 0 already cached") {
		t.Fatalf("submit: exit %d, stderr %q", exit, stderr)
	}
	if stdout, stderr, exit := run("run", "-owner", "first"); exit != 0 || len(stdout) != 0 ||
		!strings.Contains(string(stderr), "submitted=28 executed=28") || !strings.Contains(string(stderr), "decode-errors=0") {
		t.Fatalf("run: exit %d, stdout %q, stderr %q", exit, stdout, stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "export-fig7-quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, exit := run("export")
	if exit != 0 {
		t.Fatalf("export: exit %d\n%s", exit, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export differs from testdata/export-fig7-quick.golden:\n--- got\n%s--- want\n%s", got, want)
	}

	if _, stderr, exit := run("run", "-owner", "second"); exit != 0 || !strings.Contains(string(stderr), "executed=0") {
		t.Errorf("second run: exit %d, stderr %q; want every shard done and executed=0", exit, stderr)
	}
	if _, stderr, exit := run("frobnicate"); exit != 2 || !strings.Contains(string(stderr), "usage: caribou-sweep") {
		t.Errorf("unknown verb: exit %d, stderr %q; want exit 2 and the usage text", exit, stderr)
	}
}
