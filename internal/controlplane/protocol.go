// Package controlplane splits campaign execution into a coordinator and
// N worker processes (DESIGN.md §14). The coordinator owns the campaign
// identity — seed, trace.Config fingerprint, fault scenario — carves the
// experiment space into seq-keyed ranges and leases them to workers over
// a small length-prefixed protocol (every frame a JSON header; a segment's
// sealed records ride behind theirs as raw bytes):
//
//	worker                          coordinator
//	  hello{worker, config_hash} ->
//	                              <- config{wire config, hash, total}   (or reject)
//	  lease{}                    ->                          (held while every range is out)
//	                              <- range{lease, from, to}  (or done, or wait after RetryAfter)
//	  heartbeat{lease, done}     ->                          (no reply)
//	  segment{lease} + records   ->
//	                              <- ack{dups}
//	  bye{}                      ->
//
// Robustness is the point: a worker that crashes (conn drops) or hangs
// (heartbeats stop) loses its lease, and the range is reassigned to a
// healthy worker. Execution is therefore at-least-once; the merge is
// exactly-once because every completed experiment is deduplicated by its
// canonical sequence number against the coordinator's checkpoint state
// before the worker's sealed bytes are appended to it as they are.
// Per-experiment RNG streams keyed by (seed, client, seq) make
// re-execution bit-identical, so the merged dataset is byte-identical to a
// serial run no matter how many workers ran, died, or joined late.
package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"cellcurtain/internal/trace"
)

// ProtoVersion is bumped on incompatible protocol changes; the hello
// handshake rejects mismatched peers before any work is leased.
// Version 2 replaced the segment's per-experiment JSON array with a
// curtainbin records payload; version 3 moved that payload out of the
// JSON body (where it travelled as base64) into a raw trailer.
const ProtoVersion = 3

// maxMessage bounds one frame. The largest legitimate message is a
// segment of LeaseSize experiments (a few KB each); 64 MB leaves two
// orders of magnitude of headroom while still rejecting garbage frames
// from a stray client before allocating.
const maxMessage = 64 << 20

// readStep is the most readMsg allocates ahead of the bytes a peer has
// actually sent: a frame's length prefix is four unauthenticated bytes, so
// the body buffer starts at min(declared, readStep) and doubles only as it
// fills.
const readStep = 1 << 20

// recordsSep separates a segment frame's JSON header from its raw records
// trailer. json.Marshal writes no whitespace and escapes newlines inside
// strings, so the first 0x0A of a frame body, if there is one, is the
// separator.
const recordsSep = '\n'

// Message types.
const (
	MsgHello     = "hello"     // worker -> coordinator: join + fingerprint claim
	MsgConfig    = "config"    // coordinator -> worker: authoritative campaign config
	MsgReject    = "reject"    // coordinator -> worker: handshake refused
	MsgLease     = "lease"     // worker -> coordinator: request a range
	MsgRange     = "range"     // coordinator -> worker: leased seq range
	MsgWait      = "wait"      // coordinator -> worker: nothing free, retry later
	MsgDone      = "done"      // coordinator -> worker: campaign complete, go home
	MsgHeartbeat = "heartbeat" // worker -> coordinator: lease is alive (no reply)
	MsgSegment   = "segment"   // worker -> coordinator: completed range results
	MsgAck       = "ack"       // coordinator -> worker: segment durable
	MsgBye       = "bye"       // worker -> coordinator: leaving voluntarily
)

// Message is one protocol frame. A single flat struct keeps the codec
// trivial; unused fields are omitted on the wire.
type Message struct {
	Type string `json:"type"`
	// Proto is the sender's protocol version (hello only).
	Proto int `json:"proto,omitempty"`
	// Worker names the worker process (hello; echoed in logs).
	Worker string `json:"worker,omitempty"`
	// ConfigHash is the trace.Config fingerprint: the worker's claim in
	// hello ("" = none, adopt the pushed config), the authoritative value
	// in config.
	ConfigHash string `json:"config_hash,omitempty"`
	// Reason explains a reject.
	Reason string `json:"reason,omitempty"`
	// Config is the pushed campaign configuration (config only).
	Config *WireConfig `json:"config,omitempty"`
	// Total is the experiment count of the full campaign (config only).
	Total int `json:"total,omitempty"`
	// Lease identifies a granted lease (range/heartbeat/segment/ack).
	Lease int `json:"lease,omitempty"`
	// From/To bound the leased seq range, inclusive (range only).
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Done is the worker's progress inside the range (heartbeat only).
	Done int `json:"done,omitempty"`
	// RetryMillis is the suggested poll delay (wait only). This
	// coordinator sends 0: it has already held the request for its
	// RetryAfter.
	RetryMillis int `json:"retry_millis,omitempty"`
	// Dups is how many of a segment's experiments were already durable —
	// the visible face of the exactly-once merge (ack only).
	Dups int `json:"dups,omitempty"`
	// Records carries a completed range's results as one sealed curtainbin
	// stream (segment only). It is not part of the JSON header: the frame
	// carries it as raw bytes after the header, so the coordinator can
	// append exactly these bytes to its checkpoint. A Message returned by
	// readMsg shares Records with the frame buffer.
	Records []byte `json:"-"`
}

// WireConfig is the campaign configuration the coordinator pushes at
// handshake. It is trace.Spec itself — every dataset-determining field
// and nothing about execution (worker counts, checkpoints, interrupts are
// per-process concerns) — so the wire schema is Spec's JSON form and
// cannot lag behind the fingerprint.
type WireConfig = trace.Spec

// WireFromConfig extracts the pushable part of a campaign config.
func WireFromConfig(cfg trace.Config) WireConfig { return cfg.Spec }

// wallDeadline converts a relative I/O timeout into the absolute
// wall-clock deadline the socket API wants; zero means no deadline.
// Socket deadlines are real time by contract — the deterministic lease
// machinery uses the injectable clock instead.
func wallDeadline(timeout time.Duration) time.Time {
	if timeout <= 0 {
		return time.Time{}
	}
	//lint:ignore determinism socket deadlines are wall-clock by contract; lease expiry runs on the injectable clock
	return time.Now().Add(timeout)
}

// writeMsg frames one message as a 4-byte big-endian length, the JSON
// header and — when the message carries records — recordsSep and the
// records as they are, written under a write deadline (one writev on a
// socket; the records are never copied into the frame).
func writeMsg(conn net.Conn, timeout time.Duration, m *Message) error {
	hdr, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("controlplane: encode %s: %w", m.Type, err)
	}
	n := len(hdr)
	if len(m.Records) > 0 {
		n += 1 + len(m.Records)
	}
	if n > maxMessage {
		return fmt.Errorf("controlplane: %s message is %d bytes, over the %d frame bound", m.Type, n, maxMessage)
	}
	if err := conn.SetWriteDeadline(wallDeadline(timeout)); err != nil {
		return fmt.Errorf("controlplane: set write deadline: %w", err)
	}
	frame := make([]byte, 4, 4+len(hdr)+1)
	binary.BigEndian.PutUint32(frame, uint32(n))
	frame = append(frame, hdr...)
	bufs := net.Buffers{frame}
	if len(m.Records) > 0 {
		bufs = net.Buffers{append(frame, recordsSep), m.Records}
	}
	if _, err := bufs.WriteTo(conn); err != nil {
		return fmt.Errorf("controlplane: write %s: %w", m.Type, err)
	}
	return nil
}

// readMsg reads one length-prefixed frame under a read deadline. The body
// buffer grows with the bytes that arrive, not with what the length prefix
// claims.
func readMsg(conn net.Conn, timeout time.Duration) (*Message, error) {
	if err := conn.SetReadDeadline(wallDeadline(timeout)); err != nil {
		return nil, fmt.Errorf("controlplane: set read deadline: %w", err)
	}
	var prefix [4]byte
	if _, err := io.ReadFull(conn, prefix[:]); err != nil {
		return nil, fmt.Errorf("controlplane: read frame header: %w", err)
	}
	declared := binary.BigEndian.Uint32(prefix[:])
	if declared == 0 || declared > maxMessage {
		return nil, fmt.Errorf("controlplane: frame length %d outside 1..%d", declared, maxMessage)
	}
	n := int(declared)
	body := make([]byte, min(n, readStep))
	for got := 0; ; {
		if _, err := io.ReadFull(conn, body[got:]); err != nil {
			return nil, fmt.Errorf("controlplane: read frame body: %w", err)
		}
		if got = len(body); got == n {
			break
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, body)
		body = grown
	}
	hdr, records := body, []byte(nil)
	if i := bytes.IndexByte(body, recordsSep); i >= 0 {
		hdr, records = body[:i], body[i+1:]
	}
	var m Message
	if err := json.Unmarshal(hdr, &m); err != nil {
		return nil, fmt.Errorf("controlplane: decode frame: %w", err)
	}
	m.Records = records
	return &m, nil
}
