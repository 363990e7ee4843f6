package main

import (
	"strings"
	"testing"
)

// TestParseExperiments: every listed name and "all" parse; a misspelt,
// empty or unlisted name is an error naming it, so a typo cannot silently
// select nothing.
func TestParseExperiments(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string // nil: an error naming bad
		bad  string
	}{
		{list: "all", want: []string{"all"}},
		{list: "table2", want: []string{"table2"}},
		{list: "table2, fig7d ,ci", want: []string{"table2", "fig7d", "ci"}},
		{list: strings.Join(experimentNames(), ","), want: experimentNames()},
		{list: "tabel2", bad: "tabel2"},
		{list: "table2,fig7e", bad: "fig7e"},
		{list: "", bad: `""`},
		{list: "table2,", bad: `""`},
		{list: "ALL", bad: "ALL"},
	} {
		got, err := parseExperiments(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: accepted, want an error", tc.list)
			} else if !strings.Contains(err.Error(), tc.bad) || !strings.Contains(err.Error(), "table2") {
				t.Errorf("%q: error %q should name %s and list the valid experiments", tc.list, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.list, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%q: selected %v, want %v", tc.list, got, tc.want)
		}
		for _, e := range tc.want {
			if !got[e] {
				t.Errorf("%q: %s not selected", tc.list, e)
			}
		}
	}
}
