package main

import (
	"slices"
	"testing"
)

// TestSplitAddrs pins the -vmanager parse the namespace and repair
// roles validate: a list of only separators and blanks names no
// address (a usage error, not an index-out-of-range panic).
func TestSplitAddrs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",", nil},
		{" , ", nil},
		{"a", []string{"a"}},
		{"a, b", []string{"a", "b"}},
	} {
		if got := splitAddrs(tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("splitAddrs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
