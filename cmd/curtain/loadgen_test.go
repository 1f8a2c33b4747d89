package main

import (
	"encoding/json"
	"net/netip"
	"slices"
	"testing"
	"time"

	"cellcurtain/internal/adns"
	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/dnswire"
)

// jsonKeys returns the sorted top-level keys v encodes to.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestLoadgenReport runs loadgen against an in-process whoami authority
// for its zone: every query is answered, and the report carries exactly
// the keys check.sh's smoke, chaos and loss gates parse.
func TestLoadgenReport(t *testing.T) {
	whoami := adns.New(nil, nil)
	whoami.ZoneName = "loadgen.example"
	srv := &dnsserver.Server{Handler: dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		return whoami.Answer(remote.Addr(), q)
	})}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe("127.0.0.1:0") }()
	for !srv.Addr().IsValid() {
		select {
		case err := <-errCh:
			t.Fatal(err)
		case <-time.After(time.Millisecond):
		}
	}
	defer srv.Drain(time.Second)

	res, err := loadgenRun(loadgenConfig{
		target: srv.Addr().String(), qps: 400, duration: 500 * time.Millisecond, conns: 2,
		zone: "loadgen.example", names: 64, seed: 2014, timeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 || res.ParseErrors != 0 || res.AnsweredRate < 0.95 {
		t.Fatalf("received %d, parse errors %d, answered rate %.3f; want > 0, 0 and >= 0.95",
			res.Received, res.ParseErrors, res.AnsweredRate)
	}
	want := []string{"answered_rate", "completed_qps", "conns", "duration_s", "max_ms", "p50_ms", "p90_ms",
		"p99_ms", "parse_errors", "received", "sent", "servfails", "target", "target_qps", "timeouts"}
	if got := jsonKeys(t, res); !slices.Equal(got, want) {
		t.Fatalf("report keys %v, want %v", got, want)
	}
}
