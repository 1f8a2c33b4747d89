// Package dataset defines the record schema of a measurement campaign —
// the shape of the data the paper's volunteer devices reported — plus
// JSONL persistence for offline analysis.
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"time"
)

// ResolverKind identifies which resolver a measurement went through.
type ResolverKind string

// The three resolver kinds of §3.2.
const (
	KindLocal   ResolverKind = "local"
	KindGoogle  ResolverKind = "google"
	KindOpenDNS ResolverKind = "opendns"
)

// Kinds lists all resolver kinds in presentation order.
func Kinds() []ResolverKind { return []ResolverKind{KindLocal, KindGoogle, KindOpenDNS} }

// Resolution is one domain resolution pair (two back-to-back lookups,
// §4.3's cache experiment).
type Resolution struct {
	Domain string       `json:"domain"`
	Kind   ResolverKind `json:"kind"`
	Server netip.Addr   `json:"server"`
	// RTT1 and RTT2 are the first and immediate second lookup times.
	RTT1 time.Duration `json:"rtt1"`
	RTT2 time.Duration `json:"rtt2"`
	OK   bool          `json:"ok"`
	// OK2 reports that the second lookup itself succeeded; without it a
	// failed repeat (RTT2 == 0) is indistinguishable from a very fast
	// cached answer.
	OK2     bool         `json:"ok2,omitempty"`
	Answers []netip.Addr `json:"answers,omitempty"`
	CNAME   string       `json:"cname,omitempty"`
	TTL     uint32       `json:"ttl,omitempty"`
	// Radio is the technology active during the lookup (Fig 3).
	Radio string `json:"radio"`
	// Outcome classifies how the first lookup ended ("ok", "nxdomain",
	// "servfail", "refused", "timeout", "error"); empty in datasets
	// predating the resilience fields.
	Outcome string `json:"outcome,omitempty"`
	// Outcome2 classifies the immediate second lookup, attempted only when
	// the first returned data.
	Outcome2 string `json:"outcome2,omitempty"`
	// Attempts is how many exchanges the first lookup used, counting
	// retries and failover; 0 in datasets predating the field.
	Attempts int `json:"attempts,omitempty"`
	// FailedOver reports the first lookup was answered (or last tried) by
	// the fallback resolver after the primary failed.
	FailedOver bool `json:"failed_over,omitempty"`
	// Cost is the total time the first lookup burned: every attempt's
	// elapsed time plus backoff waits — equal to RTT1 on a clean success.
	// Failure cost is what feeds the SERVFAIL/timeout CDFs.
	Cost time.Duration `json:"cost,omitempty"`
}

// Discovery is one whoami resolver-identity discovery.
type Discovery struct {
	Kind ResolverKind `json:"kind"`
	// Queried is the resolver address the query was sent to (the
	// configured address for local DNS, the VIP for public DNS).
	Queried netip.Addr `json:"queried"`
	// External is the resolver identity the authoritative server saw.
	External netip.Addr `json:"external"`
	OK       bool       `json:"ok"`
	// Outcome classifies the whoami lookup like Resolution.Outcome; a
	// discovery can fail with an explicit reason instead of a bare !OK.
	Outcome string `json:"outcome,omitempty"`
}

// ResolverProbe is a ping toward resolver infrastructure.
type ResolverProbe struct {
	Kind ResolverKind `json:"kind"`
	// Which identifies the target role: "configured", "vip" or "external".
	Which  string        `json:"which"`
	Target netip.Addr    `json:"target"`
	RTT    time.Duration `json:"rtt"`
	OK     bool          `json:"ok"`
}

// ReplicaProbe measures one content replica.
type ReplicaProbe struct {
	Domain  string        `json:"domain"`
	Kind    ResolverKind  `json:"kind"`
	Replica netip.Addr    `json:"replica"`
	PingRTT time.Duration `json:"ping_rtt"`
	PingOK  bool          `json:"ping_ok"`
	TTFB    time.Duration `json:"ttfb"`
	HTTPOK  bool          `json:"http_ok"`
}

// Experiment is one full run of the §3.2 script on one device.
type Experiment struct {
	Seq      int       `json:"seq"`
	ClientID string    `json:"client_id"`
	Carrier  string    `json:"carrier"`
	Country  string    `json:"country"`
	Time     time.Time `json:"time"`
	// Lat/Lon is the coarse client location, rounded as in the paper.
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	// Radio is the dominant technology during the experiment.
	Radio string `json:"radio"`
	// NATAddr is the public identity the device currently has.
	NATAddr netip.Addr `json:"nat_addr"`
	// Configured is the device's provisioned DNS resolver.
	Configured netip.Addr `json:"configured"`

	Resolutions    []Resolution    `json:"resolutions"`
	Discoveries    []Discovery     `json:"discoveries"`
	ResolverProbes []ResolverProbe `json:"resolver_probes"`
	ReplicaProbes  []ReplicaProbe  `json:"replica_probes"`
	// EgressTrace is the responding hops of one traceroute toward a
	// replica, for §5.2 egress extraction.
	EgressTrace []netip.Addr `json:"egress_trace,omitempty"`
	// TraceFailed records that the egress traceroute itself failed (no
	// route), as opposed to simply eliciting no responding hops.
	TraceFailed bool `json:"trace_failed,omitempty"`
	// Failed marks an experiment that did not complete: the measurement
	// code panicked mid-run and was recovered. The marker preserves the
	// experiment's identity (seq, client, time) so a campaign loses one
	// record's measurements — never the shard or the run.
	Failed bool `json:"failed,omitempty"`
	// FailReason carries the recovered panic message of a Failed experiment.
	FailReason string `json:"fail_reason,omitempty"`
}

// DiscoveredExternal returns the whoami-observed external resolver for a
// kind, if the discovery succeeded.
func (e *Experiment) DiscoveredExternal(kind ResolverKind) (netip.Addr, bool) {
	for _, d := range e.Discoveries {
		if d.Kind == kind && d.OK {
			return d.External, true
		}
	}
	return netip.Addr{}, false
}

// Dataset is an in-memory campaign result.
type Dataset struct {
	Experiments []*Experiment
}

// Add appends one experiment.
func (d *Dataset) Add(e *Experiment) { d.Experiments = append(d.Experiments, e) }

// Len returns the experiment count.
func (d *Dataset) Len() int { return len(d.Experiments) }

// NewWriter returns the append and flush halves of a streaming encoder
// writing experiments to w in codec f: every dataset this repository
// writes, materialized (Dataset.Write) or streamed (simulate, convert),
// goes through it, so the two cannot drift apart by a byte. Nothing is
// complete until flush returns nil.
func NewWriter(w io.Writer, f Format) (add func(*Experiment) error, flush func() error) {
	if f == FormatBinary {
		b := NewBinaryWriter(w)
		return b.Append, b.Flush
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	return func(e *Experiment) error {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("dataset: encode experiment %d: %w", e.Seq, err)
		}
		return nil
	}, bw.Flush
}

// Write streams the dataset in the requested format.
func (d *Dataset) Write(w io.Writer, f Format) error {
	add, flush := NewWriter(w, f)
	for _, e := range d.Experiments {
		if err := add(e); err != nil {
			return err
		}
	}
	return flush()
}

// WriteJSONL streams the dataset as one JSON object per line.
func (d *Dataset) WriteJSONL(w io.Writer) error { return d.Write(w, FormatJSONL) }

// WriteBinary streams the dataset in curtainbin format.
func (d *Dataset) WriteBinary(w io.Writer) error { return d.Write(w, FormatBinary) }
