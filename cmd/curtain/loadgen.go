package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/stats"
)

// runLoadgen hammers a DNS resolver with a deterministic query mix at a
// target aggregate QPS and reports the latency distribution — the
// load-generation half of the batched serving path (ROADMAP item 2,
// DESIGN.md §12). Senders are open-loop: they pace by wall clock and do
// not wait for responses, so an overloaded server shows up as SERVFAILs
// and timeouts instead of silently slowing the generator down.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	target := fs.String("target", "127.0.0.1:5353", "resolver address (host:port)")
	qps := fs.Int("qps", 10000, "target aggregate queries per second")
	duration := fs.Duration("duration", 3*time.Second, "send phase length")
	conns := fs.Int("conns", 4, "UDP sockets (distinct source ports, so SO_REUSEPORT shards see distinct flows)")
	zone := fs.String("zone", "loadgen.example", "zone the query names are drawn from")
	names := fs.Int("names", 1024, "distinct query names in the mix")
	seed := fs.Uint64("seed", 2014, "RNG seed for the deterministic query mix")
	timeout := fs.Duration("timeout", time.Second, "drain window after the send phase; responses later than this count as timeouts")
	jsonOut := fs.Bool("json", false, "emit a one-line JSON report on stdout instead of text")
	fs.Parse(args)
	if *qps < 1 || *conns < 1 || *names < 1 || *duration <= 0 {
		return fmt.Errorf("loadgen: -qps, -conns, -names and -duration must be positive")
	}

	res, err := loadgenRun(loadgenConfig{
		target: *target, qps: *qps, duration: *duration, conns: *conns,
		zone: dnswire.Name(*zone), names: *names, seed: *seed, timeout: *timeout,
	})
	if err != nil {
		//lint:ignore errwrap loadgenRun errors already carry the loadgen: prefix and the failing target
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(res); err != nil {
			return fmt.Errorf("loadgen: encode report: %w", err)
		}
		return nil
	}
	fmt.Printf("loadgen: %s for %s at %d qps over %d conns\n", *target, *duration, *qps, *conns)
	fmt.Printf("  sent %d, received %d (%.0f qps completed), timeouts %d, servfails %d, parse errors %d, answered rate %.3f\n",
		res.Sent, res.Received, res.CompletedQPS, res.Timeouts, res.ServFails, res.ParseErrors, res.AnsweredRate)
	fmt.Printf("  latency ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
		res.P50Ms, res.P90Ms, res.P99Ms, res.MaxMs)
	return nil
}

type loadgenConfig struct {
	target   string
	qps      int
	duration time.Duration
	conns    int
	zone     dnswire.Name
	names    int
	seed     uint64
	timeout  time.Duration
}

// loadgenResult is the -json report; the check.sh smoke, chaos and loss
// gates read it.
type loadgenResult struct {
	Target       string  `json:"target"`
	TargetQPS    int     `json:"target_qps"`
	DurationSec  float64 `json:"duration_s"`
	Conns        int     `json:"conns"`
	Sent         uint64  `json:"sent"`
	Received     uint64  `json:"received"`
	Timeouts     uint64  `json:"timeouts"`
	ServFails    uint64  `json:"servfails"`
	ParseErrors  uint64  `json:"parse_errors"`
	CompletedQPS float64 `json:"completed_qps"`
	// AnsweredRate is the fraction of sent queries that came back with a
	// non-SERVFAIL answer — the chaos gate's resilience metric: under an
	// upstream outage a serve-stale forwarder keeps this near 1.0.
	AnsweredRate float64 `json:"answered_rate"`
	P50Ms        float64 `json:"p50_ms"`
	P90Ms        float64 `json:"p90_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
}

// loadgenConn is one sender/receiver socket pair's state. Latency is
// matched through a 64k send-stamp ring indexed by DNS ID: the sender
// stamps send time, the receiver swaps the stamp out on match, so dup
// responses and strays never double-count.
type loadgenConn struct {
	conn    *net.UDPConn
	queries [][]byte // pre-packed query mix, IDs rewritten per send
	stamps  [1 << 16]atomic.Int64

	sent        atomic.Uint64
	received    atomic.Uint64
	servfails   atomic.Uint64
	parseErrors atomic.Uint64
	lat         stats.Sample // receiver-owned until joined
}

// loadgenMix pre-packs the deterministic query mix for conn w: names
// q<i>.<zone> with a 70/20/10 A/AAAA/TXT type split, both drawn from the
// per-conn stream of seed. Re-running with the same seed sends the same
// queries in the same order.
func loadgenMix(cfg loadgenConfig, w int) ([][]byte, error) {
	rng := stats.Stream(cfg.seed, uint64(w))
	const mixLen = 512
	out := make([][]byte, 0, mixLen)
	for i := 0; i < mixLen; i++ {
		name := dnswire.Name(fmt.Sprintf("q%d.%s", rng.Intn(cfg.names), cfg.zone))
		t := dnswire.TypeA
		switch draw := rng.Float64(); {
		case draw >= 0.9:
			t = dnswire.TypeTXT
		case draw >= 0.7:
			t = dnswire.TypeAAAA
		}
		payload, err := dnswire.NewQuery(0, name, t).Pack()
		if err != nil {
			return nil, fmt.Errorf("loadgen: pack %s: %w", name, err)
		}
		out = append(out, payload)
	}
	return out, nil
}

func loadgenRun(cfg loadgenConfig) (*loadgenResult, error) {
	raddr, err := net.ResolveUDPAddr("udp", cfg.target)
	if err != nil {
		return nil, fmt.Errorf("loadgen: resolve %s: %w", cfg.target, err)
	}
	lcs := make([]*loadgenConn, cfg.conns)
	for w := range lcs {
		conn, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return nil, fmt.Errorf("loadgen: dial %s: %w", cfg.target, err)
		}
		defer conn.Close()
		queries, err := loadgenMix(cfg, w)
		if err != nil {
			//lint:ignore errwrap loadgenMix errors already name the query that failed to pack
			return nil, err
		}
		lcs[w] = &loadgenConn{conn: conn, queries: queries}
	}

	var recvWG, sendWG sync.WaitGroup
	for _, lc := range lcs {
		recvWG.Add(1)
		go func(lc *loadgenConn) {
			defer recvWG.Done()
			lc.receive()
		}(lc)
	}
	perConnQPS := float64(cfg.qps) / float64(cfg.conns)
	start := time.Now()
	for _, lc := range lcs {
		sendWG.Add(1)
		go func(lc *loadgenConn) {
			defer sendWG.Done()
			lc.send(start, cfg.duration, perConnQPS)
		}(lc)
	}
	sendWG.Wait()
	// Drain window: give in-flight responses cfg.timeout to land, then
	// unblock the receivers with a deadline in the past.
	time.Sleep(cfg.timeout)
	for _, lc := range lcs {
		_ = lc.conn.SetReadDeadline(time.Unix(0, 1))
	}
	recvWG.Wait()

	res := &loadgenResult{
		Target: cfg.target, TargetQPS: cfg.qps,
		DurationSec: cfg.duration.Seconds(), Conns: cfg.conns,
	}
	var lat stats.Sample
	for _, lc := range lcs {
		res.Sent += lc.sent.Load()
		res.Received += lc.received.Load()
		res.ServFails += lc.servfails.Load()
		res.ParseErrors += lc.parseErrors.Load()
		lat.Merge(&lc.lat)
	}
	res.Timeouts = res.Sent - res.Received
	res.CompletedQPS = float64(res.Received) / cfg.duration.Seconds()
	if res.Sent > 0 {
		res.AnsweredRate = float64(res.Received-res.ServFails) / float64(res.Sent)
	}
	if lat.Len() > 0 {
		res.P50Ms = lat.Percentile(50)
		res.P90Ms = lat.Percentile(90)
		res.P99Ms = lat.Percentile(99)
		res.MaxMs = lat.Percentile(100)
	}
	return res, nil
}

// send paces the pre-packed mix at qps until the deadline, stamping each
// query's send time under its rewritten ID. Pacing is open-loop against
// the wall clock in 5ms slices: a slow server cannot slow the generator.
func (lc *loadgenConn) send(start time.Time, duration time.Duration, qps float64) {
	const slice = 5 * time.Millisecond
	ticker := time.NewTicker(slice)
	defer ticker.Stop()
	var seq uint64
	deadline := start.Add(duration)
	for now := range ticker.C {
		if now.After(deadline) {
			return
		}
		due := uint64(qps * now.Sub(start).Seconds())
		for ; seq < due; seq++ {
			payload := lc.queries[seq%uint64(len(lc.queries))]
			id := uint16(seq)
			payload[0], payload[1] = byte(id>>8), byte(id)
			lc.stamps[id].Store(time.Now().UnixNano())
			if _, err := lc.conn.Write(payload); err != nil {
				lc.stamps[id].Store(0)
				continue // counted as never sent; the socket buffer may be full
			}
			lc.sent.Add(1)
		}
	}
}

// receive matches responses back to their send stamps. It owns lc.lat
// until the WaitGroup joins.
func (lc *loadgenConn) receive() {
	buf := make([]byte, 4096)
	for {
		n, err := lc.conn.Read(buf)
		if err != nil {
			return // deadline or close: the run is over
		}
		now := time.Now().UnixNano()
		if n < 12 || buf[2]&0x80 == 0 {
			lc.parseErrors.Add(1)
			continue
		}
		id := uint16(buf[0])<<8 | uint16(buf[1])
		sentAt := lc.stamps[id].Swap(0)
		if sentAt == 0 {
			continue // dup or stale: already matched or never stamped
		}
		lc.received.Add(1)
		if buf[3]&0x0F == byte(dnswire.RCodeServFail) {
			lc.servfails.Add(1)
		}
		lc.lat.Add(float64(now-sentAt) / 1e6)
	}
}
