package aecodes_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServingBinariesSkipPaperBaselines fails if a serving binary links,
// directly or transitively, a package that exists only to reproduce the
// paper's evaluation: the RAID-AE, write-performance and entangled-mirror
// studies, and the disaster simulator with its failure models.
func TestServingBinariesSkipPaperBaselines(t *testing.T) {
	fenced := map[string]bool{}
	for _, pkg := range []string{"raidae", "writeperf", "entmirror", "sim", "failure"} {
		fenced["aecodes/internal/"+pkg] = true
	}
	for _, cmd := range []string{"aestored", "aecluster", "aefile"} {
		out, err := exec.Command("go", "list", "-deps", "aecodes/cmd/"+cmd).Output()
		if err != nil {
			t.Fatalf("go list -deps aecodes/cmd/%s: %v", cmd, err)
		}
		deps := strings.Fields(string(out))
		if len(deps) < 10 {
			t.Fatalf("go list -deps aecodes/cmd/%s listed %d packages; want its whole import graph", cmd, len(deps))
		}
		for _, dep := range deps {
			if fenced[dep] {
				t.Errorf("cmd/%s imports %s", cmd, dep)
			}
		}
	}
}
