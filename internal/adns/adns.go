// Package adns implements the whoami authoritative DNS server used for
// resolver discovery (Mao et al., USENIX ATC'02; paper §3.2): the answer
// to any A query under the whoami zone is the address of whoever asked,
// i.e. the external-facing identity of the client's recursive resolver.
//
// The same handler serves two transports: a vnet.Handler inside the
// simulation and, through cmd/adnsd, a real UDP authoritative server.
package adns

import (
	"net/netip"
	"strconv"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

// Zone is the default whoami zone.
const Zone dnswire.Name = "whoami.aqualab.example"

// Whoami answers A queries under Zone with the querier's address. Answer
// is safe for concurrent use; Serve, the fabric's handler, is not.
type Whoami struct {
	// ZoneName is the zone served (default Zone).
	ZoneName dnswire.Name
	// Processing models per-query server time in the simulation; nil
	// means instantaneous.
	Processing stats.Dist
	rng        *stats.RNG
	// dec parses Serve's queries into in; resp is the answer, built in
	// place, whose records keep their array from one answer to the next,
	// and enc encodes it. Serve returns enc's bytes (see vnet.Handler).
	// Answer, what the socket servers call, uses none of them.
	dec  dnswire.Decoder
	in   dnswire.Scratch
	resp dnswire.Message
	enc  dnswire.Encoder
}

// New creates a whoami server with the given processing model.
func New(processing stats.Dist, rng *stats.RNG) *Whoami {
	return &Whoami{ZoneName: Zone, Processing: processing, rng: rng}
}

// Answer builds the whoami response for a query arriving from remote.
// It is transport-independent.
func (w *Whoami) Answer(remote netip.Addr, query *dnswire.Message) *dnswire.Message {
	resp := query.Reply()
	w.answer(resp, remote, query)
	return resp
}

// answer fills resp, already query's reply skeleton, with the whoami
// answer for remote.
func (w *Whoami) answer(resp *dnswire.Message, remote netip.Addr, query *dnswire.Message) {
	resp.Header.Authoritative = true
	zone := w.ZoneName
	if zone == "" {
		zone = Zone
	}
	if len(query.Questions) != 1 {
		resp.Header.RCode = dnswire.RCodeFormErr
		return
	}
	q := query.Questions[0]
	if !q.Name.HasSuffix(zone) {
		resp.Header.RCode = dnswire.RCodeRefused
		return
	}
	if q.Type != dnswire.TypeA && q.Type != dnswire.TypeANY && q.Type != dnswire.TypeTXT {
		// NODATA: name exists, no records of this type. TTL 0 everywhere:
		// whoami answers must never be cached.
		return
	}
	if q.Type == dnswire.TypeA || q.Type == dnswire.TypeANY {
		if remote.Is4() {
			resp.Answers = append(resp.Answers, dnswire.Record{
				Name: q.Name, Class: dnswire.ClassIN, TTL: 0,
				Data: dnswire.A{Addr: remote},
			})
		}
	}
	if q.Type == dnswire.TypeTXT || q.Type == dnswire.TypeANY {
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: q.Name, Class: dnswire.ClassIN, TTL: 0,
			Data: dnswire.TXT{Strings: []string{"resolver=" + remote.String()}},
		})
	}
}

// Serve implements vnet.Handler.
func (w *Whoami) Serve(req vnet.Request) ([]byte, time.Duration, error) {
	query, err := w.dec.ParseInto(req.Payload, &w.in)
	if err != nil {
		return nil, 0, err
	}
	w.resp.SetReply(query)
	w.answer(&w.resp, req.Src, query)
	out, err := w.enc.Encode(&w.resp)
	if err != nil {
		return nil, 0, err
	}
	// Sample from the fabric's active experiment stream when serving
	// simulated traffic; the constructor-injected generator covers
	// transports that carry no fabric (cmd/adnsd).
	rng := w.rng
	if req.Fabric != nil {
		rng = req.Fabric.RNG()
	}
	var proc time.Duration
	if w.Processing != nil && rng != nil {
		proc = w.Processing.Sample(rng)
	}
	return out, proc, nil
}

// NonceName builds a unique query name under the zone so that recursive
// resolvers can never answer from cache (paper §3.2: the resolver IP is
// found per-query).
func (w *Whoami) NonceName(n uint64) dnswire.Name {
	zone := w.ZoneName
	if zone == "" {
		zone = Zone
	}
	return dnswire.Name("x" + strconv.FormatUint(n, 36) + "." + string(zone))
}
