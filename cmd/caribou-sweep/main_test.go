package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildSweep builds the CLI into a temporary directory.
func buildSweep(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "caribou-sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// sweepIn runs one verb of the CLI against the sweep named g in store.
func sweepIn(t *testing.T, bin, store, verb string, args ...string) (stdout, stderr []byte, exit int) {
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

// TestSubmitRunExportGolden builds the sweep CLI and drives it the way a
// user does: submit the quick Fig 7 preset into a fresh store, run it,
// export it. The export must print the bytes under testdata/, recorded
// before the exhaustive row sweep learned to screen cells — the quick
// preset's fine runs solve small spaces exhaustively, so a difference means
// a plan, a draw or the accounting moved. A second run must find every
// shard done and execute nothing, and an unknown verb must exit 2 with the
// usage text.
func TestSubmitRunExportGolden(t *testing.T) {
	bin := buildSweep(t)
	store := t.TempDir()
	run := func(verb string, args ...string) (stdout, stderr []byte, exit int) {
		t.Helper()
		return sweepIn(t, bin, store, verb, args...)
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

// TestKilledRunnerShardIsStolen runs the quick Fig 7 sweep in two shards
// by two real run processes on one-second leases, and SIGKILLs one as soon
// as it reports its claim. The survivor must steal the dead process's
// lease once it lapses and finish the sweep, and nothing may show it: the
// export equals testdata/export-fig7-quick.golden and objects/ holds the
// same files, byte for byte, as a store one process filled alone.
func TestKilledRunnerShardIsStolen(t *testing.T) {
	bin := buildSweep(t)
	single, sharded := t.TempDir(), t.TempDir()
	for store, shards := range map[string]string{single: "1", sharded: "2"} {
		if _, stderr, exit := sweepIn(t, bin, store, "submit", "-figures", "fig7", "-quick", "-shards", shards); exit != 0 {
			t.Fatalf("submit -shards %s: exit %d\n%s", shards, exit, stderr)
		}
	}
	if _, stderr, exit := sweepIn(t, bin, single, "run"); exit != 0 {
		t.Fatalf("single-process run: exit %d\n%s", exit, stderr)
	}

	runner := func(owner string) *exec.Cmd {
		return exec.Command(bin, "run", "-cache-dir", sharded, "-name", "g", "-owner", owner, "-lease", "1s", "-workers", "1")
	}
	doomed := runner("doomed")
	pipe, err := doomed.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := doomed.Start(); err != nil {
		t.Fatal(err)
	}
	defer doomed.Process.Kill()
	var claim string
	for sc := bufio.NewScanner(pipe); claim == "" && sc.Scan(); {
		if strings.Contains(sc.Text(), "claimed shard") {
			claim = sc.Text()
		}
	}
	// "[doomed claimed shard N: M runs]"
	f := strings.Fields(claim)
	if len(f) < 4 {
		t.Fatalf("doomed runner never reported a claim (got %q)", claim)
	}
	stolen := "claimed shard " + f[3]

	var survived bytes.Buffer
	survivor := runner("survivor")
	survivor.Stderr = &survived
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	defer survivor.Process.Kill()
	if err := doomed.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pipe)
	doomed.Wait()
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor: %v\n%s", err, survived.String())
	}

	// The survivor leaves the sweep when no shard is claimable; the dead
	// lease may still have been live then, so it resumes until it has
	// stolen the doomed shard.
	for deadline := time.Now().Add(30 * time.Second); !strings.Contains(survived.String(), stolen); {
		if time.Now().After(deadline) {
			t.Fatalf("survivor never %s:\n%s", stolen, survived.String())
		}
		time.Sleep(200 * time.Millisecond)
		_, stderr, exit := sweepIn(t, bin, sharded, "resume", "-owner", "survivor", "-lease", "1s", "-workers", "1")
		if exit != 0 {
			t.Fatalf("resume: exit %d\n%s", exit, stderr)
		}
		survived.Write(stderr)
	}

	want, err := os.ReadFile(filepath.Join("testdata", "export-fig7-quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, exit := sweepIn(t, bin, sharded, "export")
	if exit != 0 || !bytes.Equal(got, want) {
		t.Errorf("export: exit %d, differs from testdata/export-fig7-quick.golden:\n--- got\n%s--- want\n%s%s", exit, got, want, stderr)
	}
	one, two := readObjects(t, single), readObjects(t, sharded)
	if len(one) != len(two) {
		t.Errorf("objects: %d files from one process, %d from two", len(one), len(two))
	}
	for name, body := range one {
		if !bytes.Equal(two[name], body) {
			t.Errorf("objects/%s differs between the single-process and the killed-runner store", name)
		}
	}
}

// readObjects maps every file under store/objects to its bytes.
func readObjects(t *testing.T, store string) map[string][]byte {
	t.Helper()
	root := filepath.Join(store, "objects")
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
