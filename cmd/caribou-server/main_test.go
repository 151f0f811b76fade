package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"caribou/internal/controlplane"
)

// buildServer builds the binary into a temporary directory and returns its
// path.
func buildServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binary and starts a server")
	}
	bin := filepath.Join(t.TempDir(), "caribou-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startSim starts `bin -sim` with args on a free localhost port and waits
// until /healthz answers 200. The child is killed when the test ends.
func startSim(t *testing.T, bin string, args ...string) (addr string, server *exec.Cmd, stderr *bytes.Buffer) {
	t.Helper()
	// A free localhost port: bind :0, read the port, release it for the child.
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Skipf("cannot listen on localhost: %v", err)
	}
	addr = ln.Addr().String()
	ln.Close()
	stderr = new(bytes.Buffer)
	server = exec.Command(bin, append([]string{"-sim", "-addr", addr}, args...)...)
	server.Stderr = stderr
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Process.Kill() // a no-op once the test waited for the child
		server.Wait()
	})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/healthz: status %d", resp.StatusCode)
			}
			return addr, server, stderr
		}
		if time.Now().After(deadline) {
			t.Fatalf("caribou-server did not come up on %s\n%s", addr, stderr.String())
		}
	}
}

// TestServerBinary builds the binary and drives its own flags and its
// shutdown path: a -sim child on a free port answers /healthz, SIGTERM
// drains it to exit 0 with the -trace file written and the -telemetry
// summary on stderr, an unknown flag is a usage error (exit 2) and an
// address already in use is a failure (exit 1).
func TestServerBinary(t *testing.T) {
	bin := buildServer(t)
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

	trace := filepath.Join(t.TempDir(), "trace.ndjson")
	addr, server, stderr := startSim(t, bin, "-trace", trace, "-telemetry")

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

// TestSmokeBinary runs the control plane's smoke pass against a real -sim
// child over HTTP: a tenant registers, streams one trace delta and reads
// back a plan with a version of at least 1, a granularity and at least one
// assignment.
func TestSmokeBinary(t *testing.T) {
	addr, _, _ := startSim(t, buildServer(t))

	at := controlplane.DefaultStart.Add(time.Hour).Format(time.RFC3339)
	var body []byte
	for _, step := range []struct {
		name, path, body string
		want             int
	}{
		{"register", "/v1/workflows", `{"id":"t","workload":"image-processing"}`, http.StatusCreated},
		{"trace", "/v1/workflows/t/trace", fmt.Sprintf(`{"at":%q,"invocations":100}`, at), http.StatusOK},
		{"plan", "/v1/workflows/t/plan", "", http.StatusOK},
	} {
		var resp *http.Response
		var err error
		if step.body == "" {
			resp, err = http.Get("http://" + addr + step.path)
		} else {
			resp, err = http.Post("http://"+addr+step.path, "application/json", strings.NewReader(step.body))
		}
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != step.want {
			t.Fatalf("%s: status %d (want %d), %v: %s", step.name, resp.StatusCode, step.want, err, body)
		}
	}
	var plan struct {
		Version     int               `json:"version"`
		Granularity string            `json:"granularity"`
		Assignments map[string]string `json:"assignments"`
	}
	if err := json.Unmarshal(body, &plan); err != nil || plan.Version < 1 || len(plan.Assignments) == 0 || plan.Granularity == "" {
		t.Errorf("malformed plan body (%v): %s", err, body)
	}
}
