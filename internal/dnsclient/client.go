// Package dnsclient implements a DNS stub-resolver client: query
// construction, transport with retries and timeouts, and response
// validation.
//
// The client is transport-agnostic: the same logic drives real UDP/TCP
// sockets (UDPTransport, TCPTransport; cmd/dnsprobe, cmd/fwdns) and the
// simulated fabric (probe.Host). One layer up the same holds for the
// measurement script: measure.Script takes its client from whichever
// vantage runs it. Responses are parsed with dnswire.Parse, or, by a
// client that owns a Scratch (the simulated device's, kept warm across
// experiments), with its dnswire.Decoder into reused messages.
package dnsclient

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"cellcurtain/internal/dnswire"
)

// Errors returned by the client.
var (
	ErrIDMismatch       = errors.New("dnsclient: response ID does not match query")
	ErrNotResponse      = errors.New("dnsclient: message is not a response")
	ErrNoTransport      = errors.New("dnsclient: no transport configured")
	ErrNoServers        = errors.New("dnsclient: no servers given")
	ErrAllRetriesFailed = errors.New("dnsclient: all retries failed")
)

// Transport moves one DNS datagram to a server and returns the reply and
// the observed round-trip time. The reply need only stay valid until the
// transport's next Exchange (the simulated fabric hands back a handler's
// reused buffer): the client parses it before it sends again.
type Transport interface {
	Exchange(server netip.Addr, payload []byte) (resp []byte, rtt time.Duration, err error)
}

// Client issues DNS queries through a Transport.
type Client struct {
	transport Transport
	// tcp, when set, is used to retry queries whose UDP responses arrive
	// truncated (TC bit, RFC 1035 §4.2.2).
	tcp Transport
	// Retries is the number of attempts per server (>= 1).
	Retries int
	// Backoff is the base delay inserted before the second attempt; it
	// doubles for every further attempt (capped at BackoffMax, when set).
	// Zero disables inter-attempt waiting.
	Backoff time.Duration
	// BackoffMax caps the exponential growth of Backoff.
	BackoffMax time.Duration
	// Jitter, when set, returns uniform [0, 1) draws used to randomize
	// each backoff delay (equal jitter: half fixed, half drawn). The
	// simulation wires a deterministic stream derived from the experiment
	// RNG; the real-socket tools may leave it nil.
	Jitter func() float64
	// Sleep, when set, actually waits between attempts. The simulation
	// leaves it nil: backoff is accounted in Result.Wait as virtual time,
	// never slept.
	Sleep func(time.Duration)
	// Scratch, when set, is the storage every query reuses (see
	// Scratch): a Result and its Msg are then valid only until the
	// client's next query, and the client is no longer safe for
	// concurrent use. Nil builds every query, message and Result afresh,
	// which shared clients (cmd/fwdns) need.
	Scratch *Scratch
	// nextID produces query IDs: the simulation's deterministic source,
	// or New's shared counter.
	nextID func() uint16
}

// Scratch is the storage of a client that one goroutine owns: a
// dnswire.Decoder whose tables keep the names and RDATA it has seen, two
// dnswire.Scratches that responses parse into (one may hold an answer
// kept while another server is tried), the query message and its
// Encoder, and the one Result every query returns. The zero value is
// ready to use.
type Scratch struct {
	dec   dnswire.Decoder
	msgs  [2]dnswire.Scratch
	next  int // the msgs entry the next response parses into
	query dnswire.Message
	enc   dnswire.Encoder
	res   Result
}

// SetTCPFallback installs the transport used when responses arrive
// truncated.
func (c *Client) SetTCPFallback(t Transport) { c.tcp = t }

// New creates a client over the given transport. idSource may be nil, in
// which case IDs count up from 1 on an atomic counter, so one Client may
// be shared by concurrent callers (cmd/fwdns shares one per upstream
// port). The transports validate IDs on receipt.
func New(t Transport, idSource func() uint16) *Client {
	if idSource == nil {
		var ctr atomic.Uint32
		idSource = func() uint16 { return uint16(ctr.Add(1)) }
	}
	return &Client{transport: t, Retries: 2, nextID: idSource}
}

// Result is the outcome of one resolution.
type Result struct {
	// Msg is the validated response message.
	Msg *dnswire.Message
	// RTT is the observed resolution time of the successful attempt.
	RTT time.Duration
	// Attempts is how many exchanges it took, counting the TCP retry
	// after a truncated UDP response as one additional exchange.
	Attempts int
	// Server is the resolver queried.
	Server netip.Addr
	// UsedTCP reports that Msg is the full answer obtained over the TCP
	// fallback after a truncated UDP response.
	UsedTCP bool
	// Truncated reports that Msg is a truncated partial answer (no TCP
	// fallback configured, or the TCP retry failed), so analysis can
	// distinguish full answers from partial ones.
	Truncated bool
	// FailedOver reports that Server is not the first server given: the
	// primary failed and a fallback answered (or was the last one tried).
	FailedOver bool
	// Wait is the total backoff delay inserted between attempts.
	Wait time.Duration
	// Total is the full cost of the lookup: every attempt's elapsed time
	// (failed attempts and timeouts included, across all servers tried)
	// plus Wait. On a clean first-attempt success Total equals RTT.
	Total time.Duration
}

// IPs returns the answer-section addresses.
func (r *Result) IPs() []netip.Addr {
	if r.Msg == nil {
		return nil
	}
	return r.Msg.AnswerIPs()
}

// Query resolves (name, type) against server. It retries on transport
// errors with exponential backoff, validates the response ID and QR bit,
// and returns the parsed message along with the RTT of the successful
// attempt.
func (c *Client) Query(server netip.Addr, name dnswire.Name, t dnswire.Type) (*Result, error) {
	return c.QueryFailover(name, t, server)
}

// backoffDelay computes the (possibly jittered) wait before the next
// attempt, given how many attempts have already been made.
func (c *Client) backoffDelay(made int) time.Duration {
	if c.Backoff <= 0 || made < 1 {
		return 0
	}
	shift := made - 1
	if shift > 16 {
		shift = 16
	}
	d := c.Backoff << shift
	if c.BackoffMax > 0 && d > c.BackoffMax {
		d = c.BackoffMax
	}
	if c.Jitter != nil {
		half := d / 2
		d = half + time.Duration(c.Jitter()*float64(half))
	}
	return d
}

// ShouldFailOver reports whether a response's RCode warrants trying
// another server: the server answered but declared itself unable or
// unwilling to serve. NXDOMAIN and data answers are authoritative data,
// not server failure, and must never fail over. QueryFailover and the
// upstream pool share this classification.
func ShouldFailOver(rc dnswire.RCode) bool {
	return rc == dnswire.RCodeServFail || rc == dnswire.RCodeRefused
}

// QueryFailover resolves (name, type) against servers in order: each
// server gets up to Retries attempts (with exponential backoff between
// consecutive attempts); a server that keeps failing at the transport
// level or that answers SERVFAIL/REFUSED hands the query to the next one,
// modelling a stub resolver walking its configured server list. NXDOMAIN
// and other data answers never fail over — they are authoritative data,
// not server failure.
//
// The returned Result is non-nil whenever at least one exchange ran, even
// on total failure (Msg nil, err non-nil): Attempts, Wait, Total and
// FailedOver still describe the work done, so callers can record the cost
// of failures. A client with a Scratch returns the Scratch's Result, valid
// until its next query.
func (c *Client) QueryFailover(name dnswire.Name, t dnswire.Type, servers ...netip.Addr) (*Result, error) {
	if c.transport == nil {
		return nil, ErrNoTransport
	}
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	retries := c.Retries
	if retries < 1 {
		retries = 1
	}
	var (
		lastErr    error
		lastResp   *Result // SERVFAIL/REFUSED answer held while failing over
		attempts   int
		cost, wait time.Duration
	)
	finish := func(res *Result) *Result {
		res.Attempts = attempts
		res.Wait = wait
		res.Total = cost + wait
		return res
	}
	for si, server := range servers {
		for attempt := 1; attempt <= retries; attempt++ {
			if attempts > 0 {
				d := c.backoffDelay(attempts)
				wait += d
				if c.Sleep != nil && d > 0 {
					c.Sleep(d)
				}
			}
			attempts++
			id := c.nextID()
			payload, err := c.pack(id, name, t)
			if err != nil {
				return nil, fmt.Errorf("dnsclient: pack: %w", err)
			}
			raw, rtt, err := c.transport.Exchange(server, payload)
			cost += rtt
			if err != nil {
				lastErr = err
				continue
			}
			msg, err := c.parse(raw)
			if err != nil {
				lastErr = err
				continue
			}
			if msg.Header.ID != id {
				lastErr = ErrIDMismatch
				continue
			}
			if !msg.Header.Response {
				lastErr = ErrNotResponse
				continue
			}
			if msg.Header.Truncated && c.tcp != nil {
				c.hold()
				tcpRaw, tcpRTT, err := c.tcp.Exchange(server, payload)
				// The TCP retry is a real exchange on the wire whether or
				// not it succeeds, so it counts toward Attempts either way.
				attempts++
				cost += tcpRTT
				if err == nil {
					if full, perr := c.parse(tcpRaw); perr == nil &&
						full.Header.ID == id && full.Header.Response {
						return finish(c.result(Result{
							Msg: full, RTT: rtt + tcpRTT, Server: server,
							UsedTCP: true, Truncated: full.Header.Truncated,
							FailedOver: si > 0,
						})), nil
					}
				}
				// TCP retry failed; return the truncated answer, which is
				// still a valid (if partial) response, and flag it as such.
				return finish(c.result(Result{
					Msg: msg, RTT: rtt, Server: server,
					Truncated: true, FailedOver: si > 0,
				})), nil
			}
			res := c.result(Result{
				Msg: msg, RTT: rtt, Server: server,
				Truncated: msg.Header.Truncated, FailedOver: si > 0,
			})
			if ShouldFailOver(msg.Header.RCode) {
				// The server is up but cannot serve; hold its answer and
				// move on. The last such answer is what the caller sees if
				// no server does better.
				c.hold()
				lastResp = res
				break
			}
			return finish(res), nil
		}
	}
	if lastResp != nil {
		return finish(lastResp), nil
	}
	res := finish(c.result(Result{Server: servers[len(servers)-1], FailedOver: len(servers) > 1}))
	if lastErr == nil {
		return res, ErrAllRetriesFailed
	}
	return res, fmt.Errorf("%w: %w", ErrAllRetriesFailed, lastErr)
}

// pack encodes the query (id, name, t): into the Scratch's Encoder when
// the client has one, else into a fresh buffer.
func (c *Client) pack(id uint16, name dnswire.Name, t dnswire.Type) ([]byte, error) {
	if s := c.Scratch; s != nil {
		s.query.SetQuestion(id, name, t)
		return s.enc.Encode(&s.query)
	}
	return dnswire.NewQuery(id, name, t).Pack()
}

// parse decodes a response: with the Scratch's Decoder into its next
// message when the client has one, else with dnswire.Parse.
func (c *Client) parse(raw []byte) (*dnswire.Message, error) {
	if s := c.Scratch; s != nil {
		return s.dec.ParseInto(raw, &s.msgs[s.next])
	}
	return dnswire.Parse(raw)
}

// hold keeps the message parsed last from the next parse, which goes
// into the Scratch's other message.
func (c *Client) hold() {
	if s := c.Scratch; s != nil {
		s.next ^= 1
	}
}

// result returns r as the query's Result: the Scratch's one Result when
// the client has one, else a fresh one.
func (c *Client) result(r Result) *Result {
	if s := c.Scratch; s != nil {
		s.res = r
		return &s.res
	}
	fresh := new(Result) // not &r: r would then go to the heap on both paths
	*fresh = r
	return fresh
}

// QueryA resolves A records and returns the full result.
func (c *Client) QueryA(server netip.Addr, name dnswire.Name) (*Result, error) {
	return c.Query(server, name, dnswire.TypeA)
}
