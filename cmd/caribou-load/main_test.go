package main

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeBinary builds the binary and runs the smoke pass the way CI
// does: in-process, then against a `caribou-server -sim` child over real
// HTTP; a flag of the deleted load generator is a usage error.
func TestSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and starts a server")
	}
	dir := t.TempDir()
	build := func(name string) string {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, "../"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
		return bin
	}
	load := build("caribou-load")
	run := func(args ...string) (exit int, stderr string) {
		var se bytes.Buffer
		cmd := exec.Command(load, args...)
		cmd.Stderr = &se
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("%v: %v", args, err)
			}
			exit = ee.ExitCode()
		}
		return exit, se.String()
	}

	if exit, stderr := run("-smoke"); exit != 0 || !strings.Contains(stderr, "smoke OK") {
		t.Errorf("in-process smoke: exit %d, stderr %q", exit, stderr)
	}
	if exit, stderr := run("-tenants", "5"); exit != 2 {
		t.Errorf("-tenants 5: exit %d, want 2 (stderr %q)", exit, stderr)
	}

	// A free localhost port: bind :0, read the port, release it for the child.
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Skipf("cannot listen on localhost: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	server := exec.Command(build("caribou-server"), "-sim", "-addr", addr)
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("caribou-server did not come up on %s", addr)
		}
	}
	if exit, stderr := run("-smoke", "-addr", "http://"+addr); exit != 0 || !strings.Contains(stderr, "smoke OK") {
		t.Errorf("smoke over HTTP: exit %d, stderr %q", exit, stderr)
	}
}
