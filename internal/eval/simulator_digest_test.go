package eval

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"caribou/internal/carbon"
	"caribou/internal/core"
	"caribou/internal/executor"
	"caribou/internal/trace"
	"caribou/internal/workloads"
)

const simulatorDigests = "testdata/simulator-digests.txt"

// TestSimulatorBlobDigests pins what the simulated platform records, run
// by run: the SHA-256 of EncodeResult for every run of the quick Fig 7
// sweep, for one plain-SNS and one Step Functions day of quick Fig 12, and
// for the adaptive best-case week of quick Fig 11 (plan switches, removed
// deployments and the cold bursts that follow them). The digests in
// testdata were recorded before the executor/platform/pubsub/simclock hot
// path was rewritten to resolve names once; any change to the draws, to
// the order of scheduler events or to the order in which a record's
// events are appended shows up here as a changed line. A deliberate change
// bumps ResultSchema and rewrites the file with -update-golden.
// (pubsub's DuplicateProb is not reachable from here; its twin is
// executor.TestDuplicateDeliveryRecordDigest.)
func TestSimulatorBlobDigests(t *testing.T) {
	const seed = 17 // caribou-eval's default
	quickWLs := []*workloads.Workload{workloads.Text2SpeechCensoring(), workloads.ImageProcessing()}
	small := []workloads.InputClass{workloads.Small}

	var got []string
	add := func(name string, cfg RunConfig, res *Result) {
		t.Helper()
		blob, err := EncodeResult(cfg, res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, fmt.Sprintf("%x  %s", sha256.Sum256(blob), name))
	}

	cfgs, _, _ := fig7Plan(fig7Defaults(Fig7Options{Seed: seed, Workloads: quickWLs, Classes: small}))
	for _, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		add("fig7|"+cfg.withDefaults().canonicalKey(), cfg, res)
	}

	wl := workloads.Text2SpeechCensoring()
	for _, mode := range []executor.Mode{executor.ModePlainSNS, executor.ModeStepFunctions} {
		app, err := fig12App(wl, workloads.Small, mode, seed)
		if err != nil {
			t.Fatal(err)
		}
		add("fig12|"+wl.Name+"|small|"+mode.String(), RunConfig{Workload: wl, Seed: seed}, &Result{App: app})
	}

	profile := trace.AzureP5()
	profile.DailyInvocations = 300
	profile.LargeFraction = 1
	end := EvalStart.Add(3 * 24 * time.Hour)
	events, err := trace.Generate(profile, EvalStart, end, seed)
	if err != nil {
		t.Fatal(err)
	}
	tx := carbon.BestCase()
	out, err := fig11Run(wl, events, EvalStart, end, seed, &tx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.solves) < 2 {
		t.Fatalf("the adaptive run solved %d times; it is here to cover plan switches", len(out.solves))
	}
	add("fig11|"+wl.Name+"|adaptive|best", RunConfig{Workload: wl, Seed: seed}, &Result{App: &core.App{Records: out.records}})

	fresh := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(simulatorDigests, []byte(fresh), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(simulatorDigests)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d runs digested, %s lists %d", len(got), simulatorDigests, len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("run %d records different bytes than at the recorded commit:\n got %s\nwant %s", i, got[i], wantLines[i])
		}
	}
}
