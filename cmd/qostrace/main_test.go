package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The goldens under testdata are the analyzer's output on committed
// JSONL streams: sim.jsonl is a trimmed `simqos -duration 300 -seed 1
// -trace-sample 1 -trace` run (44 direct-path admissions, five of them
// infeasible), chaos.jsonl a trimmed `simqos -chaos -seed 11 -loss 0.12
// -dup 0.06 -trace` run (fabric call spans, participant spans and
// typed events), and sim_incomplete.jsonl is sim.jsonl with the root
// span of one trace removed. The goldens are the output of the
// analyzer as it stood before its forest code moved into this command.

// TestReportGolden pins the report byte for byte: plain and with the
// slowest critical paths.
func TestReportGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"sim.txt", []string{"-input", "testdata/sim.jsonl"}},
		{"sim_paths3.txt", []string{"-input", "testdata/sim.jsonl", "-paths", "3"}},
		{"chaos_paths3.txt", []string{"-input", "testdata/chaos.jsonl", "-paths", "3", "-fail-incomplete"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, nil, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr.String())
			}
			checkGolden(t, tc.golden, stdout.Bytes())
		})
	}
}

// TestFailIncompleteGate pins the CI gate: a stream missing one root
// span exits 1 and names the broken counters on stderr.
func TestFailIncompleteGate(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-input", "testdata/sim_incomplete.jsonl", "-fail-incomplete"}, nil, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	checkGolden(t, "sim_incomplete.stderr", stderr.Bytes())

	stderr.Reset()
	if code := run([]string{"-input", "testdata/sim_incomplete.jsonl"}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("without -fail-incomplete: exit %d, want 0", code)
	}
}

// TestReadsStdin pins the default input.
func TestReadsStdin(t *testing.T) {
	in, err := os.ReadFile("testdata/sim.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, bytes.NewReader(in), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	checkGolden(t, "sim.txt", stdout.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
