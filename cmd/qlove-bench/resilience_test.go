package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain dispatches the resilience scenario's hidden agg-server
// subcommand: under `go test`, os.Executable is the TEST binary, so the
// re-exec'd child lands here instead of main(). Everything else runs the
// tests as usual.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == aggServeCmd {
		if err := aggServeChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "qlove-bench agg-server:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// requireVerdicts fails unless a scenario run succeeded, printed every
// wanted phrase and reported no failing verdict.
func requireVerdicts(t *testing.T, err error, out *bytes.Buffer, wants ...string) {
	t.Helper()
	text := out.String()
	if err != nil {
		t.Fatalf("scenario: %v\n%s", err, text)
	}
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Fatalf("scenario output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "MISMATCH") || strings.Contains(text, "FAIL") {
		t.Fatalf("scenario reported a failing verdict:\n%s", text)
	}
	t.Logf("\n%s", text)
}

// TestResilienceScenario runs the full scenario — the SIGKILL restart
// phase against real re-exec'd service children AND the degraded fan-in
// phase — exactly as `qlove-bench resilience` does.
func TestResilienceScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns service subprocesses; skipped in -short")
	}
	var out bytes.Buffer
	err := resilienceExperiment(&out, defaultResilienceOptions(1))
	requireVerdicts(t, err, &out, "bit-identical", "probe reinstatement")
}

// TestResizeScenario runs the replication gate — quorum push with a
// replica down, empty-revival resync, live /slots/move growth — exactly as
// `qlove-bench resize` does (in-process replicas on loopback sockets).
func TestResizeScenario(t *testing.T) {
	var out bytes.Buffer
	err := resizeExperiment(&out, defaultResizeOptions(1))
	requireVerdicts(t, err, &out, "bit-identical")
}
