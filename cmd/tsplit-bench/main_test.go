package main

import (
	"strconv"
	"strings"
	"testing"

	"tsplit/internal/experiments"
)

// TestSelectExps checks -exp resolution: known ids select in catalog
// order, and any unknown id is an error that names it and lists every
// valid id.
func TestSelectExps(t *testing.T) {
	exps := catalog(new(experiments.Sweep), 0, 0)
	all := make([]string, len(exps))
	for i, e := range exps {
		all[i] = e.id
	}
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"all", all},
		{"fig1,all", all},
		{"table4", []string{"table4"}},
		{"table4,fig2b", []string{"fig2b", "table4"}},
		{" fig2b , table4", []string{"fig2b", "table4"}},
	} {
		got, err := selectExps(tc.spec, exps)
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		ids := make([]string, len(got))
		for i, e := range got {
			ids[i] = e.id
		}
		if strings.Join(ids, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%q: selected %v, want %v", tc.spec, ids, tc.want)
		}
	}

	for _, tc := range []struct{ spec, unknown string }{
		{"bogus", "bogus"},
		{"table4,bogus", "bogus"},
		{"planlat", "planlat"},
		{"simlat", "simlat"},
		{"serve", "serve"},
		{"", ""},
		{"table4,", ""},
	} {
		_, err := selectExps(tc.spec, exps)
		if err == nil {
			t.Errorf("%q: no error, want an unknown-id error", tc.spec)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, strconv.Quote(tc.unknown)) {
			t.Errorf("%q: error %q does not name %q", tc.spec, msg, tc.unknown)
		}
		for _, id := range all {
			if !strings.Contains(msg, " "+id) {
				t.Errorf("%q: error %q does not list valid id %q", tc.spec, msg, id)
			}
		}
	}
}
