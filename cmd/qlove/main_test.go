package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/workload"
)

func TestParsePhis(t *testing.T) {
	got, err := parsePhis("0.9, 0.5,0.99")
	if err != nil {
		t.Fatal(err)
	}
	// Sorted ascending regardless of input order.
	want := []float64{0.5, 0.9, 0.99}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsePhis = %v, want %v", got, want)
		}
	}
}

func TestParsePhisErrors(t *testing.T) {
	for _, in := range []string{"abc", "0", "1.5", "0.5,,0.9"} {
		if _, err := parsePhis(in); err == nil {
			t.Errorf("parsePhis(%q) accepted", in)
		}
	}
}

// TestSpaceMatchesRun holds -space to the §5.1 space metric qlove.Run
// reports: sub-window operators hold nothing in flight right after a seal,
// so a peak sampled only at evaluations under-reports them.
func TestSpaceMatchesRun(t *testing.T) {
	data := workload.Generate(workload.NewNetMon(3), 200000)
	path := filepath.Join(t.TempDir(), "netmon.bin")
	if err := dataset.SaveFile(path, data); err != nil {
		t.Fatal(err)
	}
	spec := qlove.Window{Size: 16000, Period: 2000}
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	for _, name := range []string{"qlove", "qlove-fewk"} {
		p, err := qlove.NewPolicy(name, spec, phis)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := qlove.Run(p, spec, data)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-window", "16000", "-period", "2000", "-policy", name, "-space", path}, &out); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("# peak space: %d variables\n", stats.MaxSpace)
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s: want %q in the output:\n%s", name, want, out.String())
		}
	}
}
