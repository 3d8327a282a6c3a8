package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"io"
	"strings"
	"testing"

	"aecodes/internal/sim"
)

// small is a scale at which every experiment runs in well under a second.
var small = sim.Config{DataBlocks: 2000, Locations: 100, Seed: 1}

const smallTrials = 50

// TestEveryExperimentRuns runs each registered experiment alone, then
// checks that -exp all prints exactly their outputs in registry order:
// the sweeps "all" shares between experiments change no number.
func TestEveryExperimentRuns(t *testing.T) {
	var want bytes.Buffer
	for _, e := range experiments {
		var out bytes.Buffer
		if err := run(&out, e.name, small, smallTrials); err != nil {
			t.Fatalf("-exp %s: %v", e.name, err)
		}
		if strings.TrimSpace(out.String()) == "" {
			t.Errorf("-exp %s printed nothing", e.name)
		}
		want.Write(out.Bytes())
	}
	var all bytes.Buffer
	if err := run(&all, "all", small, smallTrials); err != nil {
		t.Fatalf("-exp all: %v", err)
	}
	if all.String() != want.String() {
		t.Errorf("-exp all differs from the experiments run one by one:\n%s\nwant:\n%s", all.String(), want.String())
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	for _, exp := range []string{"fig99", "fig8,nope", "", "ALL"} {
		if err := run(io.Discard, exp, small, smallTrials); err == nil {
			t.Errorf("-exp %q ran; want an unknown-experiment error", exp)
		}
	}
	var out bytes.Buffer
	if err := run(&out, "fig8,nope", small, smallTrials); err == nil || out.Len() != 0 {
		t.Errorf("-exp fig8,nope printed %d bytes before failing; want none", out.Len())
	}
}

// TestDocListsEveryExperiment keeps the package doc's experiment list
// equal to the registry's, in order.
func TestDocListsEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(f.Doc.Text()), " ")
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	want := "Experiments: " + strings.Join(append(names, "all"), ", ") + "."
	if !strings.Contains(doc, want) {
		t.Errorf("package doc does not list the registry; want the sentence\n%s", want)
	}
}
