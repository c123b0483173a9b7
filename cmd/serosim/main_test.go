package main

import "testing"

// The heavyweight experiments have their own tests in
// internal/experiments; here we exercise the dispatch and the cheap
// figures end to end.
func TestRunFigures(t *testing.T) {
	for _, name := range []string{"fig2", "fig3", "fig7", "fig8", "fig9", "e1-latency", "e10-pulse"} {
		if err := run(name, 42); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", 42); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
