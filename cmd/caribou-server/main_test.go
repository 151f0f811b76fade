package main

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServerBinary builds the binary and drives its own flags and its
// shutdown path: a -sim child on a free port answers /healthz, SIGTERM
// drains it to exit 0 with the -trace file written and the -telemetry
// summary on stderr, an unknown flag is a usage error (exit 2) and an
// address already in use is a failure (exit 1).
func TestServerBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and starts a server")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "caribou-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	exitCode := func(err error) int {
		t.Helper()
		var ee *exec.ExitError
		switch {
		case err == nil:
			return 0
		case errors.As(err, &ee):
			return ee.ExitCode()
		}
		t.Fatal(err)
		return -1
	}

	// A free localhost port: bind :0, read the port, release it for the child.
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Skipf("cannot listen on localhost: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	trace := filepath.Join(dir, "trace.ndjson")
	var stderr bytes.Buffer
	server := exec.Command(bin, "-sim", "-addr", addr, "-trace", trace, "-telemetry")
	server.Stderr = &stderr
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer server.Process.Kill() // a no-op once the child was waited for
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/healthz: status %d", resp.StatusCode)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("caribou-server did not come up on %s\n%s", addr, stderr.String())
		}
	}

	// The port is taken now: a second server must fail, not hang.
	var second bytes.Buffer
	occupied := exec.Command(bin, "-sim", "-addr", addr)
	occupied.Stderr = &second
	if exit := exitCode(occupied.Run()); exit != 1 || !strings.Contains(second.String(), "address already in use") {
		t.Errorf("occupied -addr: exit %d, stderr %q; want exit 1 naming the address in use", exit, second.String())
	}

	resp, err := http.Post("http://"+addr+"/v1/workflows", "application/json", strings.NewReader(`{"id":"t","workload":"image-processing"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("register: status %d", resp.StatusCode)
	}

	if err := server.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if exit := exitCode(server.Wait()); exit != 0 {
		t.Errorf("SIGTERM: exit %d, want 0\n%s", exit, stderr.String())
	}
	for _, want := range []string{"terminated; shutting down", "controlplane.registers"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr after SIGTERM lacks %q:\n%s", want, stderr.String())
		}
	}
	if data, err := os.ReadFile(trace); err != nil {
		t.Errorf("-trace file: %v", err)
	} else if !bytes.Contains(data, []byte(`"controlplane.register"`)) {
		t.Errorf("-trace file (%d bytes) holds no controlplane.register span", len(data))
	}

	var usage bytes.Buffer
	unknown := exec.Command(bin, "-no-such-flag")
	unknown.Stderr = &usage
	if exit := exitCode(unknown.Run()); exit != 2 || !strings.Contains(usage.String(), "-no-such-flag") {
		t.Errorf("unknown flag: exit %d, stderr %q; want exit 2 naming the flag", exit, usage.String())
	}
}
