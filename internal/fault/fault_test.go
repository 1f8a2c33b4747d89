package fault

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/vnet"
)

var (
	resolverA = netip.MustParseAddr("10.1.0.1")
	resolverB = netip.MustParseAddr("10.1.0.2")
	campStart = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	campEnd   = campStart.AddDate(0, 0, 100)
)

// testBook resolves "local" to the two test resolvers.
func testBook(class TargetClass) ([]netip.Addr, bool) {
	switch class {
	case TargetLocal:
		return []netip.Addr{resolverA, resolverB}, true
	case TargetExternal:
		return nil, true
	default:
		return nil, false
	}
}

func TestParseClauseKeys(t *testing.T) {
	cls, err := Parse("outage:target=local,port=53,mode=servfail,start=25%,dur=50%")
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) != 1 {
		t.Fatalf("clauses = %d, want 1", len(cls))
	}
	cl := cls[0]
	if cl.Kind != KindOutage || cl.Target != TargetLocal || cl.Port != 53 || cl.Mode != ModeServFail {
		t.Fatalf("parsed clause = %+v", cl)
	}
	if !cl.start.isFrac || cl.start.frac != 0.25 || !cl.dur.isFrac || cl.dur.frac != 0.5 {
		t.Fatalf("window bounds = %+v %+v", cl.start, cl.dur)
	}
}

func TestParseMultiClauseAndDefaults(t *testing.T) {
	cls, err := Parse("latency:segment=radio,mult=3 ; loss:segment=radio,p=0.02")
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) != 2 {
		t.Fatalf("clauses = %d, want 2", len(cls))
	}
	if cls[0].Multiplier != 3 || cls[0].Segment != "radio" {
		t.Fatalf("latency clause = %+v", cls[0])
	}
	if cls[1].Loss != 0.02 {
		t.Fatalf("loss clause = %+v", cls[1])
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"",                                   // empty scenario
		"quake:target=local",                 // unknown kind
		"outage:port=53",                     // endpoint kind without target
		"latency:segment=radio",              // latency without mult/extra
		"loss:segment=radio,p=1.5",           // out-of-range probability
		"flap:target=local,duty=0.5",         // flap without period
		"storm:target=local",                 // storm without p
		"outage:target=local,mode=explode",   // unknown mode
		"outage:target=local,start=110%",     // bad percentage
		"outage:target=local,start=-3h",      // negative offset
		"outage:target=local,dur=10%,end=1h", // dur and end together
		"outage:target=local,zorp=1",         // unknown key
		"outage target=local",                // missing colon
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

func TestPresetsAllCompile(t *testing.T) {
	book := func(class TargetClass) ([]netip.Addr, bool) {
		// Every symbolic class resolves somewhere in a real world.
		return []netip.Addr{resolverA}, true
	}
	for _, name := range PresetNames() {
		s, err := Compile(name, book, campStart, campEnd)
		if err != nil {
			t.Errorf("preset %q: %v", name, err)
			continue
		}
		if len(s.segment)+len(s.endpoint) == 0 {
			t.Errorf("preset %q compiled to an empty schedule", name)
		}
	}
}

func TestCompileWindowPinning(t *testing.T) {
	s, err := Compile("outage:target=local,start=25%,dur=50%", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	wantStart := campStart.AddDate(0, 0, 25)
	wantEnd := campStart.AddDate(0, 0, 75)
	inj := s.endpoint[resolverA][0]
	if !inj.Start.Equal(wantStart) || !inj.End.Equal(wantEnd) {
		t.Fatalf("window = [%s, %s), want [%s, %s)", inj.Start, inj.End, wantStart, wantEnd)
	}

	// Absolute offsets and end= pin the same way.
	s, err = Compile("outage:target=local,start=36h,end=10%", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	inj = s.endpoint[resolverA][0]
	if !inj.Start.Equal(campStart.Add(36*time.Hour)) || !inj.End.Equal(campStart.AddDate(0, 0, 10)) {
		t.Fatalf("window = [%s, %s)", inj.Start, inj.End)
	}

	// Defaults: the whole campaign.
	s, err = Compile("outage:target=local", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	inj = s.endpoint[resolverA][0]
	if !inj.Start.Equal(campStart) || !inj.End.Equal(campEnd) {
		t.Fatalf("default window = [%s, %s)", inj.Start, inj.End)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"outage:target=martian":                 "unknown target class",
		"outage:target=external":                "no addresses",
		"outage:target=local,start=50%,end=50%": "empty window",
	}
	for spec, wantSub := range cases {
		_, err := Compile(spec, testBook, campStart, campEnd)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Compile(%q) err = %v, want substring %q", spec, err, wantSub)
		}
	}
}

func TestCompileAdHocAddr(t *testing.T) {
	s, err := Compile("outage:addr=192.0.2.53,mode=drop", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	act := s.AtEndpoint(netip.MustParseAddr("192.0.2.53"), 53, campStart)
	if !act.Drop {
		t.Fatal("ad-hoc addr outage must drop")
	}
}

func TestOutageWindowAndPortScope(t *testing.T) {
	s, err := Compile("outage:target=local,port=53,mode=drop,start=25%,dur=50%", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	mid := campStart.AddDate(0, 0, 50)
	if !s.AtEndpoint(resolverA, 53, mid).Drop {
		t.Fatal("inside the window the outage must drop port 53")
	}
	if s.AtEndpoint(resolverA, 0, mid).Drop {
		t.Fatal("a port-53 outage must leave ICMP alive")
	}
	if s.AtEndpoint(resolverA, 53, campStart).Drop {
		t.Fatal("before the window nothing is injected")
	}
	if s.AtEndpoint(resolverA, 53, campEnd.Add(-time.Hour)).Drop {
		t.Fatal("after the window nothing is injected")
	}
	if s.AtEndpoint(netip.MustParseAddr("8.8.8.8"), 53, mid).Drop {
		t.Fatal("untargeted endpoints are untouched")
	}
}

func TestPortAnyCoversICMP(t *testing.T) {
	s, err := Compile("outage:target=local,port=any,mode=drop", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	if !s.AtEndpoint(resolverA, 0, campStart).Drop {
		t.Fatal("port=any must cover ICMP (port 0)")
	}
}

func TestServFailRespondSynthesizes(t *testing.T) {
	s, err := Compile("outage:target=local,mode=servfail", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	act := s.AtEndpoint(resolverA, 53, campStart)
	if act.Respond == nil {
		t.Fatal("servfail outage must respond, not drop")
	}
	q := dnswire.NewQuery(1234, "www.example.com.", dnswire.TypeA)
	raw, _ := q.Pack()
	resp, svc, err := act.Respond(raw)
	if err != nil {
		t.Fatal(err)
	}
	if svc <= 0 {
		t.Fatal("synthesized reply must cost service time")
	}
	msg, err := dnswire.Parse(resp)
	if err != nil {
		t.Fatalf("synthesized reply does not parse: %v", err)
	}
	if msg.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %d, want SERVFAIL", msg.Header.RCode)
	}
	if msg.Header.ID != 1234 {
		t.Fatalf("reply ID = %d, want the query's 1234", msg.Header.ID)
	}

	// Garbage in: the query is dropped, not answered.
	if _, _, err := act.Respond([]byte("not dns")); err != vnet.ErrTimeout {
		t.Fatalf("unparseable payload err = %v, want ErrTimeout", err)
	}
}

func TestFlapPhase(t *testing.T) {
	s, err := Compile("flap:target=local,period=10m,duty=0.3", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	// Dark for the first 3 minutes of every 10-minute cycle.
	for _, tc := range []struct {
		off  time.Duration
		down bool
	}{
		{0, true},
		{2 * time.Minute, true},
		{3 * time.Minute, false},
		{9 * time.Minute, false},
		{10 * time.Minute, true},
		{12*time.Minute + 59*time.Second, true},
		{13 * time.Minute, false},
	} {
		got := s.AtEndpoint(resolverA, 53, campStart.Add(tc.off)).Drop
		if got != tc.down {
			t.Errorf("flap at +%v: down = %v, want %v", tc.off, got, tc.down)
		}
	}
}

func TestCrossSegmentLatencyAndLoss(t *testing.T) {
	s, err := Compile("latency:segment=radio,mult=2,extra=5ms", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	adj, drop := s.CrossSegment("radio", campStart, 10*time.Millisecond)
	if drop {
		t.Fatal("latency spike must not drop")
	}
	if want := 25 * time.Millisecond; adj != want {
		t.Fatalf("adjusted = %v, want %v (2x + 5ms)", adj, want)
	}
	// Other segments untouched.
	if adj, _ := s.CrossSegment("wan", campStart, 10*time.Millisecond); adj != 10*time.Millisecond {
		t.Fatalf("untargeted segment adjusted to %v", adj)
	}

	// A certain-loss burst drops every crossing in-window.
	s, err = Compile("loss:segment=radio,p=1", testBook, campStart, campEnd)
	if err != nil {
		t.Fatal(err)
	}
	s.BeginExperiment(stats.Stream(1, 1))
	if _, drop := s.CrossSegment("radio", campStart, time.Millisecond); !drop {
		t.Fatal("p=1 loss burst must drop")
	}
}

func TestScheduleDeterministicInStream(t *testing.T) {
	// Identical streams make identical decisions; the schedule has no
	// hidden state beyond the stream it is handed.
	decisions := func() []bool {
		s, err := Compile("storm:target=local,p=0.5", testBook, campStart, campEnd)
		if err != nil {
			t.Fatal(err)
		}
		s.BeginExperiment(stats.Stream(42, 7))
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, s.AtEndpoint(resolverA, 53, campStart).Respond != nil)
		}
		return out
	}
	a, b := decisions(), decisions()
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identical streams", i)
		}
		if a[i] != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("p=0.5 storm produced constant decisions; stream not consulted")
	}
}
