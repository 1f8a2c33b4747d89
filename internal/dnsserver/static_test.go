package dnsserver

import (
	"net/netip"
	"testing"

	"cellcurtain/internal/dnswire"
)

func staticFixture(t *testing.T) *Static {
	t.Helper()
	rrs, err := dnswire.ParseRecords(`
www.example.com 300 A 192.0.2.1
www.example.com 300 A 192.0.2.2
alias.example.com 60 CNAME www.example.com
deep.example.com CNAME alias.example.com
loop-a.example CNAME loop-b.example
loop-b.example CNAME loop-a.example
mail.example.com 120 MX 10 mx.example.com
host.example.com TXT "v=test"
`)
	if err != nil {
		t.Fatal(err)
	}
	return NewStatic(rrs)
}

func ask(t *testing.T, h Handler, name dnswire.Name, typ dnswire.Type) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(1, name, typ)
	resp := h.ServeDNS(netip.AddrPort{}, q)
	if resp == nil {
		t.Fatal("nil response")
	}
	return resp
}

func TestStaticDirectAnswer(t *testing.T) {
	s := staticFixture(t)
	if s.Len() != 7 {
		t.Fatalf("names = %d", s.Len())
	}
	resp := ask(t, s, "WWW.Example.COM", dnswire.TypeA)
	if len(resp.AnswerIPs()) != 2 || !resp.Header.Authoritative {
		t.Fatalf("answers = %v", resp.AnswerIPs())
	}
}

func TestStaticCNAMEChase(t *testing.T) {
	s := staticFixture(t)
	resp := ask(t, s, "deep.example.com", dnswire.TypeA)
	var chain []dnswire.Name
	for _, rr := range resp.Answers {
		if c, ok := rr.Data.(dnswire.CNAME); ok {
			chain = append(chain, c.Target)
		}
	}
	if len(chain) != 2 {
		t.Fatalf("cname chain = %v", chain)
	}
	if ips := resp.AnswerIPs(); len(ips) != 2 {
		t.Fatalf("chased answers = %v", ips)
	}
	// Asking for the CNAME itself must not chase.
	resp = ask(t, s, "alias.example.com", dnswire.TypeCNAME)
	if len(resp.Answers) != 1 {
		t.Fatalf("CNAME query answers = %d", len(resp.Answers))
	}
}

func TestStaticCNAMELoopBounded(t *testing.T) {
	s := staticFixture(t)
	resp := ask(t, s, "loop-a.example", dnswire.TypeA)
	// Must terminate with the visited CNAMEs and no crash.
	if len(resp.Answers) == 0 || len(resp.Answers) > 16 {
		t.Fatalf("loop handling produced %d answers", len(resp.Answers))
	}
}

func TestStaticNXDomainAndNoData(t *testing.T) {
	s := staticFixture(t)
	resp := ask(t, s, "missing.example.com", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	resp = ask(t, s, "mail.example.com", dnswire.TypeA) // MX exists, A doesn't
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 0 {
		t.Fatalf("NODATA expected: %+v", resp)
	}
}

func TestStaticANY(t *testing.T) {
	s := staticFixture(t)
	resp := ask(t, s, "www.example.com", dnswire.TypeANY)
	if len(resp.Answers) != 2 {
		t.Fatalf("ANY answers = %d", len(resp.Answers))
	}
}

func TestMergeRouting(t *testing.T) {
	s := staticFixture(t)
	whoami := HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		r := q.Reply()
		r.Answers = []dnswire.Record{{Name: q.Questions[0].Name, Class: dnswire.ClassIN, TTL: 0,
			Data: dnswire.A{Addr: netip.MustParseAddr("10.9.9.9")}}}
		return r
	})
	h := Merge("whoami.example.org", whoami, s)
	// Whoami zone routes to primary.
	resp := ask(t, h, "x7.whoami.example.org", dnswire.TypeA)
	if ips := resp.AnswerIPs(); len(ips) != 1 || ips[0].String() != "10.9.9.9" {
		t.Fatalf("merge primary: %v", ips)
	}
	// Other names route to the static set.
	resp = ask(t, h, "www.example.com", dnswire.TypeA)
	if len(resp.AnswerIPs()) != 2 {
		t.Fatalf("merge fallback: %v", resp.AnswerIPs())
	}
}
