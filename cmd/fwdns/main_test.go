package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	explicit := func(names ...string) map[string]bool {
		set := map[string]bool{}
		for _, n := range names {
			set[n] = true
		}
		return set
	}
	cases := []struct {
		name       string
		upstreams  int
		set        map[string]bool
		hedge      string
		breakAfter int
		maxCache   int
		wantErr    string // substring; "" = valid
	}{
		{"defaults with one upstream", 1, explicit(), "adaptive", 3, 65536, ""},
		{"explicit hedge with two upstreams", 2, explicit("hedge"), "adaptive", 3, 65536, ""},
		{"explicit hedge off with one upstream", 1, explicit("hedge"), "off", 3, 65536, ""},
		{"explicit adaptive hedge with one upstream", 1, explicit("hedge"), "adaptive", 3, 65536, "at least two -upstream"},
		{"explicit duration hedge with one upstream", 1, explicit("hedge"), "20ms", 3, 65536, "at least two -upstream"},
		{"zero break-after", 2, explicit("break-after"), "adaptive", 0, 65536, "-break-after 0 must be positive"},
		{"negative break-after", 1, explicit(), "adaptive", -1, 65536, "-break-after -1 must be positive"},
		{"zero max-cache", 1, explicit("max-cache"), "adaptive", 3, 0, "-max-cache 0 must be positive"},
		{"negative max-cache", 1, explicit(), "adaptive", 3, -5, "-max-cache -5 must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.upstreams, tc.set, tc.hedge, tc.breakAfter, tc.maxCache)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags: %v, want ok", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseUpstreams(t *testing.T) {
	cases := []struct {
		list string
		want string // the parsed list, space-joined; "" = an error
	}{
		{"8.8.8.8", "8.8.8.8:53"},
		{"127.0.0.1:5354", "127.0.0.1:5354"},
		{"8.8.8.8, 1.1.1.1:5353", "8.8.8.8:53 1.1.1.1:5353"},
		{"8.8.8.8,,", "8.8.8.8:53"},
		{"[::1]:5354,::1", "[::1]:5354 [::1]:53"},
		{"", ""},
		{" , ", ""},
		{"not-an-addr", ""},
		{"8.8.8.8:70000", ""},
		{"8.8.8.8,dns.google", ""},
	}
	for _, tc := range cases {
		ups, err := parseUpstreams(tc.list)
		var got []string
		for _, ap := range ups {
			got = append(got, ap.String())
		}
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("parseUpstreams(%q) = %v, want an error", tc.list, got)
		case tc.want != "" && err != nil:
			t.Errorf("parseUpstreams(%q): %v, want %s", tc.list, err, tc.want)
		case tc.want != "" && strings.Join(got, " ") != tc.want:
			t.Errorf("parseUpstreams(%q) = %v, want %s", tc.list, got, tc.want)
		}
	}
}
