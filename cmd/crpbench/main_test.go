package main

import (
	"path/filepath"
	"testing"
)

func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"fig99", "crpd", "churn", "kernels"} {
		if err := run([]string{"-quick", "-exp", exp}); err == nil {
			t.Errorf("unknown experiment %q should fail", exp)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-exp", "faults", "-nodes", "100"}} {
		if err := run(args); err == nil {
			t.Errorf("run %v: unknown flag should fail", args)
		}
	}
}

// The paper experiments print tables and write no report, so -out must be
// rejected up front rather than silently ignored.
func TestRunPaperExperimentRejectsOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.json")
	for _, exp := range []string{"table1", "all"} {
		if err := run([]string{"-exp", exp, "-quick", "-out", out}); err == nil {
			t.Errorf("run -exp %s -out: want error", exp)
		}
	}
}

func TestRunQuickSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	// One cheap experiment from each family exercises the full dispatch.
	for _, exp := range []string{"table1", "repair"} {
		if err := run([]string{"-quick", "-exp", exp}); err != nil {
			t.Errorf("run -quick -exp %s: %v", exp, err)
		}
	}
}
