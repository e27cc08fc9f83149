package main

import (
	"strings"
	"testing"
)

// fabsim rejects an unknown -exp and, on a -topology run, an explicit
// -exp or -reprobe, naming the flag; the unknown-name error lists every
// valid choice.
func TestCheckExp(t *testing.T) {
	given := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	for _, tc := range []struct {
		which  string
		fabric bool
		given  map[string]bool
		flag   string // the flag the error must name
	}{
		{"bogus", false, given("exp"), "-exp"},
		{"qos", true, given("exp"), "-exp"},
		{"all", true, given("exp"), "-exp"},
		{"all", true, given("reprobe"), "-reprobe"},
	} {
		err := checkExp(tc.which, tc.fabric, tc.given)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+":") {
			t.Errorf("%+v: error %v, want one naming %s", tc, err, tc.flag)
		}
	}
	err := checkExp("bogus", false, given("exp"))
	for _, name := range append([]string{"all"}, experiments...) {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("unknown -exp error %v does not offer %q", err, name)
		}
	}
	for _, tc := range []struct {
		which  string
		fabric bool
		given  map[string]bool
	}{
		{"all", false, given()},
		{"all", true, given("topology")},
		{"lookup", false, given("exp")},
		{"restore", false, given("exp", "reprobe")},
	} {
		if err := checkExp(tc.which, tc.fabric, tc.given); err != nil {
			t.Errorf("%+v: rejected: %v", tc, err)
		}
	}
}
