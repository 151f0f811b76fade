package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expected-diagnostic annotations in fixture sources:
//
//	// want <check> "<message substring>"
//
// Several may share a line.
var wantRe = regexp.MustCompile(`want ([a-z]+) "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	line  int
	check string
	substr,
	file string
}

// loadFixture type-checks testdata/<name> as pkgPath and returns the
// post-suppression diagnostics alongside the want-annotations parsed
// from its sources.
func loadFixture(t *testing.T, name, pkgPath string) ([]Diagnostic, []expectation) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	pkg, err := NewLoader().LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading %s as %s: %v", dir, pkgPath, err)
	}
	diags := Lint([]*Package{pkg}, Analyzers())

	var wants []expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants = append(wants, expectation{line: i + 1, check: m[1], substr: strings.ReplaceAll(m[2], `\"`, `"`), file: path})
			}
		}
	}
	return diags, wants
}

// checkFixture asserts an exact match between diagnostics and the
// fixture's want annotations: every want matched by exactly one
// diagnostic on its line, and no diagnostic unaccounted for.
func checkFixture(t *testing.T, name, pkgPath string) {
	t.Helper()
	diags, wants := loadFixture(t, name, pkgPath)
	used := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !used[i] && d.Check == w.check && d.Pos.Line == w.line &&
				strings.Contains(d.Message, w.substr) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected [%s] diagnostic containing %q, got none", w.file, w.line, w.check, w.substr)
		}
	}
	for i, d := range diags {
		if !used[i] {
			t.Errorf("%s:%d: unexpected [%s] diagnostic: %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
		}
	}
}

func TestWallclockFixture(t *testing.T) {
	checkFixture(t, "wallclock_bad", "caribou/internal/metrics")
}

func TestWallclockExemptPackage(t *testing.T) {
	checkFixture(t, "wallclock_exempt", "caribou/internal/telemetry")
}

func TestGlobalRandFixture(t *testing.T) {
	checkFixture(t, "globalrand_bad", "caribou/internal/solver")
}

func TestGlobalRandExemptPackage(t *testing.T) {
	checkFixture(t, "globalrand_exempt", "caribou/internal/simclock")
}

func TestMapOrderFixture(t *testing.T) {
	checkFixture(t, "maporder_bad", "caribou/internal/eval")
}

func TestMapOrderNegativeCases(t *testing.T) {
	checkFixture(t, "maporder_ok", "caribou/internal/eval")
}

func TestHotSprintfFixture(t *testing.T) {
	checkFixture(t, "hotsprintf_hot", "caribou/internal/montecarlo")
}

func TestHotSprintfColdPackage(t *testing.T) {
	checkFixture(t, "hotsprintf_cold", "caribou/internal/eval")
}

func TestGoroutinesFixture(t *testing.T) {
	checkFixture(t, "goroutines_bad", "caribou/internal/metrics")
}

func TestGoroutinesApprovedPackage(t *testing.T) {
	checkFixture(t, "goroutines_ok", "caribou/internal/solver")
}

func TestGoroutinesControlPlaneApproved(t *testing.T) {
	checkFixture(t, "goroutines_cp_ok", "caribou/internal/controlplane")
}

func TestGoroutinesCommandBinary(t *testing.T) {
	checkFixture(t, "goroutines_cmd", "caribou/cmd/caribou-server")
}

func TestWallclockClockSeam(t *testing.T) {
	checkFixture(t, "wallclock_clockseam", "caribou/internal/controlplane")
}

// TestWallclockRunstoreSeam pins that internal/runstore is NOT
// wallclock-exempt: lease timestamps must flow through the injected
// runstore.Clock, and a bare time.Now in the package is a finding.
func TestWallclockRunstoreSeam(t *testing.T) {
	checkFixture(t, "wallclock_runstore", "caribou/internal/runstore")
}

// TestAllowCommentValidation pins the meta-check: an allow comment that
// names no check, names an unknown check, or carries no reason is itself
// a diagnostic — and a reasonless allow suppresses nothing, so the
// wallclock finding on its line survives too. Expectations are located
// by searching the fixture source (the findings sit on comment lines,
// where inline want annotations cannot).
func TestAllowCommentValidation(t *testing.T) {
	diags, _ := loadFixture(t, "allow_bad", "caribou/internal/metrics")

	src, err := os.ReadFile(filepath.Join("testdata", "allow_bad", "fixture.go"))
	if err != nil {
		t.Fatal(err)
	}
	lineOf := func(marker string) int {
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, marker) {
				return i + 1
			}
		}
		t.Fatalf("marker %q not found in fixture", marker)
		return 0
	}

	bareAllowLine := 0
	for i, line := range strings.Split(string(src), "\n") {
		if strings.TrimSpace(line) == "//caribou:allow" {
			bareAllowLine = i + 1
			break
		}
	}
	if bareAllowLine == 0 {
		t.Fatal("bare //caribou:allow comment not found in fixture")
	}

	expect := []struct {
		line   int
		check  string
		substr string
	}{
		{bareAllowLine, "allow", "names no check"},
		{lineOf("//caribou:allow bogus"), "allow", "unknown check"},
		{lineOf("return time.Now()"), "allow", "no reason"},
		{lineOf("return time.Now()"), "wallclock", "time.Now reads the wall clock"},
	}

	if len(diags) != len(expect) {
		for _, d := range diags {
			t.Logf("got: %s:%d [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(expect))
	}
	for _, w := range expect {
		found := false
		for _, d := range diags {
			if d.Check == w.check && d.Pos.Line == w.line && strings.Contains(d.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("line %d: expected [%s] diagnostic containing %q", w.line, w.check, w.substr)
		}
	}
}

func TestDetTaintFixture(t *testing.T) {
	checkFixture(t, "dettaint_bad", "caribou/internal/solver")
}

func TestDetTaintNegativeCases(t *testing.T) {
	checkFixture(t, "dettaint_ok", "caribou/internal/solver")
}

func TestHotAllocFixture(t *testing.T) {
	checkFixture(t, "hotalloc_bad", "caribou/internal/montecarlo")
}

func TestHotAllocNegativeCases(t *testing.T) {
	checkFixture(t, "hotalloc_ok", "caribou/internal/montecarlo")
}

func TestAtomicPubFixture(t *testing.T) {
	checkFixture(t, "atomicpub_bad", "caribou/internal/controlplane")
}

func TestAtomicPubNegativeCases(t *testing.T) {
	checkFixture(t, "atomicpub_ok", "caribou/internal/controlplane")
}

// TestStaleAllowFixture pins the stale-suppression meta-check: an allow
// covering no finding is itself an "allow" diagnostic, while an allow
// that still suppresses one stays silent.
func TestStaleAllowFixture(t *testing.T) {
	checkFixture(t, "allow_stale", "caribou/internal/metrics")
}
