package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUnknownExperimentNamesTheValidOnes(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "fig99"}, &out)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not name experiment %s", err, e.name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("unknown experiment printed output:\n%s", out.String())
	}
}

func TestTable2QuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 4-minute indoor coding study")
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "table2", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table II", "indoor"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table2 output lacks %q:\n%s", want, out.String())
		}
	}
}
