package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"propeller/internal/experiments"
)

func TestListPrintsTheRegistry(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, e := range experiments.All() {
		fmt.Fprintf(&want, "%-14s %s\n", e.ID, e.Title)
	}
	if out.String() != want.String() || out.Len() == 0 {
		t.Errorf("-list printed:\n%swant one line per registered experiment:\n%s", out.String(), want.String())
	}
}

func TestUnknownExperimentNamesTheIDs(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "nope"}, &out)
	if err == nil {
		t.Fatal("unknown experiment id should be an error")
	}
	for _, e := range experiments.All() {
		if !strings.Contains(err.Error(), e.ID) {
			t.Errorf("error %q does not name experiment %q", err, e.ID)
		}
	}
	if out.Len() != 0 {
		t.Errorf("nothing should run before the id is resolved, printed:\n%s", out.String())
	}
}
