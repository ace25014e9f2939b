package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestRunRejects pins the argument errors: a -scale outside (0, 1] (which
// bench.Options would silently turn into the paper-size run) and every
// scenario name this command no longer dispatches.
func TestRunRejects(t *testing.T) {
	type rejection struct {
		args []string
		want string
	}
	cases := []rejection{
		{[]string{"-scale", "0", "table1"}, "outside (0, 1]"},
		{[]string{"-scale", "10", "table1"}, "outside (0, 1]"},
		{[]string{"-scale", "-0.5", "-list"}, "outside (0, 1]"},
		{[]string{"-scale", "NaN", "table1"}, "outside (0, 1]"},
		{[]string{"-bp", "spill", "openloop"}, "unknown -bp mode"},
	}
	for _, name := range []string{"multikey", "timedkeys", "scaling", "aggregator", "distributed", "resilience", "resize"} {
		cases = append(cases, rejection{[]string{"-scale", "0.02", name}, `unknown experiment "` + name + `"`})
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(&out, c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run %v: err = %v, want one containing %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed before failing:\n%s", c.args, out.Bytes())
		}
	}
}

// TestListMatchesDispatch: -list prints exactly the paper experiments in
// paper order followed by openloop.
func TestListMatchesDispatch(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-list"}); err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(out.String())
	want := append(slices.Clone(bench.Order), "openloop")
	if !slices.Equal(got, want) {
		t.Fatalf("-list = %v, want %v", got, want)
	}
}
