package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRejectsUnrunnableFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "bogus"},
		{"-table", "6"},
		{"-runs", "0"},
		{"-runs", "-1"},
		{"-runs", "two"},
		{"-scale", "0"},
		{"-scale", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q, want nothing", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage of lmfao-bench") {
			t.Errorf("%v: stderr %q lacks the usage", args, stderr.String())
		}
	}
}

func TestTables1And2(t *testing.T) {
	for _, tc := range []struct {
		table string
		want  []string // heading, then row labels, in order
		not   string   // a heading of another table
	}{
		{"1", []string{
			"Table 1: dataset characteristics (scale 0.0002)",
			"Tuples in Database", "Size of Database", "Tuples in Join Result",
			"Size of Join Result", "Relations", "Attributes", "Categorical Attributes",
		}, "Table 2:"},
		{"2", []string{
			"Table 2: aggregates (A), intermediates (I), views (V), groups (G), output size",
			"dataset", "retailer  covar", "retailer  rtnode", "retailer  mi", "retailer  cube",
		}, "Table 1:"},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"-table", tc.table, "-datasets", "retailer", "-scale", "0.0002", "-runs", "1"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-table %s: exit status %d, stderr %q", tc.table, code, stderr.String())
		}
		out := stdout.String()
		rest := out
		for _, w := range tc.want {
			i := strings.Index(rest, w)
			if i < 0 {
				t.Fatalf("-table %s: %q missing or out of order in\n%s", tc.table, w, out)
			}
			rest = rest[i+len(w):]
		}
		if strings.Contains(out, tc.not) {
			t.Errorf("-table %s also printed %q:\n%s", tc.table, tc.not, out)
		}
	}
}
