package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickFig7UntapedByteIdentical builds the binary and drives it the
// way a user does: the quick Fig 7 run must print the same bytes on the
// default evaluation path and on the untaped reference path, and an eval
// mode that does not exist must be refused with the accepted value named.
func TestQuickFig7UntapedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "caribou-eval")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr []byte, err error) {
		var so, se bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &so, &se
		err = cmd.Run()
		return so.Bytes(), se.Bytes(), err
	}

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
