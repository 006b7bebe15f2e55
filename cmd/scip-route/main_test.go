package main

import (
	"reflect"
	"testing"
)

// TestSplitNodes pins the -nodes parsing: entries are trimmed, blank
// entries dropped, and trailing slashes removed so a node URL is one ring
// identity however the operator typed it.
func TestSplitNodes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{"http://a:1,http://b:2", []string{"http://a:1", "http://b:2"}},
		{" http://a:1 ,, http://b:2 ", []string{"http://a:1", "http://b:2"}},
		{"http://a:1/,http://b:2//", []string{"http://a:1", "http://b:2"}},
	} {
		if got := splitNodes(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitNodes(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
