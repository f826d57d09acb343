package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error, "" = must succeed
	}{
		{"empty", nil, ""},
		{"quick preset", []string{"-quick", "-noprodistin"}, ""},
		{"overrides", []string{"-proteins", "600", "-edges", "820", "-seed", "7"}, ""},
		{"unknown flag", []string{"-bogus"}, "not defined"},
		{"positional args", []string{"stray"}, "unexpected arguments"},
		{"malformed int", []string{"-proteins", "many"}, "invalid value"},
		{"negative proteins", []string{"-proteins", "-5"}, "non-negative"},
		{"negative edges", []string{"-edges", "-1"}, "non-negative"},
		{"too few proteins", []string{"-proteins", "10"}, "below the minimum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			opts, err := parseFlags(tc.args, &stderr)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%q) = %v", tc.args, err)
				}
				if opts == nil {
					t.Fatalf("parseFlags(%q) returned nil options", tc.args)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseFlags(%q) accepted invalid input: %+v", tc.args, opts)
			}
			// The FlagSet reports parse errors itself; ours come back verbatim.
			if !strings.Contains(err.Error(), tc.wantErr) && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("parseFlags(%q) error %q / stderr %q, want mention of %q",
					tc.args, err, stderr.String(), tc.wantErr)
			}
		})
	}
}

func TestParseFlagsHelp(t *testing.T) {
	var stderr strings.Builder
	_, err := parseFlags([]string{"-h"}, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "-noprodistin") {
		t.Fatalf("usage not printed: %q", stderr.String())
	}
}

func TestParseFlagsValues(t *testing.T) {
	var stderr strings.Builder
	opts, err := parseFlags([]string{"-quick", "-proteins", "600", "-seed", "7", "-gibbs"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !opts.quick || opts.proteins != 600 || opts.seed != 7 || !opts.gibbs {
		t.Fatalf("opts = %+v", opts)
	}
}
