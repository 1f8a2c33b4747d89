#!/usr/bin/env sh
# check.sh — the pre-PR gate: build, vet, curtainlint, race-enabled tests.
#
# Run from anywhere inside the repo:
#
#	./scripts/check.sh
#
# Every step must pass. curtainlint findings are fixed or carry a
# justified //lint:ignore (see DESIGN.md "Static analysis & determinism
# policy"); go test -race keeps the concurrent server paths honest.
set -eu

cd "$(dirname "$0")/.."

# Every temp file lives under $work and every background daemon's PID is
# appended to $pids, so one trap cleans up however the script exits — a
# failing gate must not leave a daemon bound to its port for the next run.
work="$(mktemp -d)"
pids=""
cleanup() {
	for pid in $pids; do
		kill -9 "$pid" 2>/dev/null || true
	done
	rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l . (every .go file, bench/ included, is gofmt-clean)"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	printf 'gofmt would reformat:\n%s\n' "$unformatted"
	exit 1
fi

echo "==> cross-build (GOOS=windows, GOOS=darwin: the portable batch loop, the !linux sockopt fallback, sigdrain's signal set)"
GOOS=windows go build ./...
GOOS=darwin go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> curtainlint ./..."
go run ./cmd/curtainlint ./...

echo "==> hot-path zero-alloc proof (testing.AllocsPerRun) and Parse allocation budget (CNAME + 2xA reply: <= 8)"
go test -count=1 -run '^(TestHotPathAllocs|TestParseAllocBudget$)' ./internal/dnswire/

echo "==> serving hot-path zero-alloc proof (dispatch, servfail, batch read loop)"
go test -count=1 -run '^TestHotPathAllocs' ./internal/dnsserver/

echo "==> curtainbin codec zero-alloc proof (per-record encode)"
go test -count=1 -run '^TestHotPathAllocs' ./internal/dataset/

echo "==> curtainbin scan allocation budget (Scan of 640 paper-campaign records: <= 8 allocations per record, dropped records not pinned)"
go test -count=1 -run '^TestScanAllocBudget$' ./internal/dataset/

echo "==> experiment allocation budget (testing.AllocsPerRun over one measure.Runner.RunAt)"
go test -count=1 -run '^TestExperimentAllocBudget$' ./internal/measure/

echo "==> segment round-trip allocation budget (Marshal+UnmarshalExperiments of a 64-record lease: no per-call reader or compressor, <= 12 allocations per record)"
go test -count=1 -run '^TestSegmentRoundTripAllocBudget$' ./internal/dataset/

echo "==> forwarder miss-path allocation budgets (dnswire.Check and responseMatches of a CNAME + 2xA reply: 0; Pool.Resolve over two scripted upstreams: <= 7; Forwarder cache hit: <= 2)"
go test -count=1 -run '^(TestCheckAllocBudget|TestResponseMatchesAllocBudget|TestResolveAllocBudget|TestCacheHitAllocBudget)$' \
	./internal/dnswire/ ./internal/dnsclient/ ./internal/upstream/ ./internal/forwarder/

echo "==> analysis fold allocation budgets (Suite.Observe: a repeat experiment of a known client <= 0.5, a new client's <= 2)"
go test -count=1 -run '^TestSuiteObserveAllocBudget$' ./internal/analysis/

echo "==> go test -race ./..."
go test -race ./...

echo "==> control-plane hand-offs (parked lease requests, hostile segment ingest; -race -count=5: their goroutine interleavings differ run to run)"
go test -race -count=5 -run '^(TestParkedLease|TestHostileSegmentIngest)' ./internal/controlplane/

echo "==> scan pipeline, curtainbin and JSONL (serial equivalence, early stop, goroutine and reader hygiene; -race -count=5: the decoder interleavings are not seeded)"
go test -race -count=5 -run '^TestScan' ./internal/dataset/

echo "==> worker-count invariance (workers 1/4/8 -> identical dataset)"
go test -race -count=1 -run '^TestWorkerCountInvariance$' ./internal/trace/

echo "==> fault-campaign invariance (resolver-outage, workers 1/4/8)"
go test -race -count=1 -run '^TestWorkerCountInvarianceWithFaults$' ./internal/trace/

echo "==> fault smoke (AVAIL report under resolver-outage)"
go run ./cmd/curtain exp -id AVAIL -faults resolver-outage -days 2 -scale 0.05 >/dev/null

echo "==> pinned campaign digests (paper + resolver-outage bytes == constants recorded before memoisation)"
go test -count=1 -run '^TestPinned' ./internal/trace/

echo "==> kill-and-resume invariance (abort + resume -> byte-identical dataset)"
go test -race -count=1 -run '^TestKillResumeInvariance$' ./internal/trace/

echo "==> dnswire fuzz smoke (5s per target, seed corpus in testdata/fuzz)"
go test -count=1 -run '^$' -fuzz '^FuzzParseMessage$' -fuzztime=5s ./internal/dnswire/
go test -count=1 -run '^$' -fuzz '^FuzzPackMatchesReference$' -fuzztime=5s ./internal/dnswire/
go test -count=1 -run '^$' -fuzz '^FuzzDecodeName$' -fuzztime=5s ./internal/dnswire/

echo "==> curtainbin fuzz smoke (5s; worker-supplied segment bytes: no panic, round trip, allocation bounded by input length)"
go test -count=1 -run '^$' -fuzz '^FuzzUnmarshalExperiments$' -fuzztime=5s ./internal/dataset/

echo "==> checkpoint reader fuzz smoke (5s; ScanTorn: a durable prefix rescans to what it yielded, a cut is torn, a flip inside a segment is not)"
go test -count=1 -run '^$' -fuzz '^FuzzScanTorn$' -fuzztime=5s ./internal/dataset/

echo "==> control-frame reader fuzz smoke (5s; readMsg: no panic, no wait on a closed peer, allocation bounded by bytes that arrive, accepted frames round-trip)"
go test -count=1 -run '^$' -fuzz '^FuzzReadMsg$' -fuzztime=5s ./internal/controlplane/

echo "==> bench module (vet + tests: all five ledger workloads smoked with their output checks)"
go vet -C bench ./...
go test -C bench ./...

echo "==> profile smoke (simulate -cpuprofile/-memprofile write non-empty pprof files)"
ckbin="$work/curtain"
go build -o "$ckbin" ./cmd/curtain
pfdir="$work/prof"
mkdir "$pfdir"
"$ckbin" simulate -days 1 -scale 0.05 -seed 7 -format binary -out "$pfdir/ds.bin" \
	-cpuprofile "$pfdir/cpu.pprof" -memprofile "$pfdir/mem.pprof" >/dev/null 2>&1
for pf in cpu.pprof mem.pprof; do
	[ -s "$pfdir/$pf" ] || { echo "check.sh: simulate left no $pf" >&2; exit 1; }
done

echo "==> codec round-trip (jsonl -> binary -> jsonl via convert, byte-identical)"
ckds="$work/ds.jsonl"
ckb="$work/ds-rerun.jsonl"
cvbin="$work/ds.bin"
cvjsonl="$work/ds-roundtrip.jsonl"
"$ckbin" simulate -days 2 -scale 0.1 -seed 7 -format jsonl -out "$ckds" >/dev/null 2>&1
"$ckbin" convert -in "$ckds" -out "$cvbin" 2>/dev/null
"$ckbin" convert -in "$cvbin" -out "$cvjsonl" 2>/dev/null
cmp "$ckds" "$cvjsonl" || { echo "check.sh: jsonl -> binary -> jsonl round trip diverges" >&2; exit 1; }

echo "==> checkpoint gate (durable run == plain run; torn segment tail + -resume -> byte-identical; convert -in <dir> == dataset)"
# A durable run, then a simulated hard kill mid-append (chop the segment
# tail mid-record) and a resume: the resumed dataset must equal the serial
# JSONL reference byte for byte. A serial run's checkpoint must also hold
# exactly the dataset, in order — read back through convert, the way a
# checkpoint is inspected by eye.
bkck="$work/bk-ck"
bkcv="$work/bk-ck.jsonl"
"$ckbin" simulate -days 2 -scale 0.1 -seed 7 -checkpoint-dir "$bkck" \
	-format jsonl -out "$ckb" >/dev/null 2>&1
cmp "$ckds" "$ckb" || { echo "check.sh: checkpointed run diverges from plain run" >&2; exit 1; }
bkseg="$bkck/experiments.bin"
[ -f "$bkseg" ] || { echo "check.sh: no checkpoint segment at $bkseg" >&2; exit 1; }
bksize="$(wc -c < "$bkseg")"
dd if=/dev/null of="$bkseg" bs=1 seek="$((bksize - 17))" 2>/dev/null # tear the tail mid-record
bklog="$work/bk-resume.log"
"$ckbin" simulate -days 2 -scale 0.1 -seed 7 -checkpoint-dir "$bkck" \
	-resume -format jsonl -out "$ckb" >/dev/null 2> "$bklog"
cmp "$ckds" "$ckb" || { echo "check.sh: kill-resume diverges from serial bytes" >&2; exit 1; }
grep -E 'discarded [1-9][0-9]* bytes of torn segment tail' "$bklog" >/dev/null || {
	echo "check.sh: -resume over a torn segment tail does not say it discarded it" >&2; cat "$bklog" >&2; exit 1; }
"$ckbin" convert -in "$bkck" -out "$bkcv" 2>/dev/null
cmp "$ckds" "$bkcv" || { echo "check.sh: convert -in <checkpoint dir> diverges from the serial dataset" >&2; exit 1; }

echo "==> ablation worker gate (ABL-CONSISTENCY, ABL-GRANULARITY: -workers 2 prints what -workers 1 does; replica worlds derive from the ablated Spec)"
for id in ABL-CONSISTENCY ABL-GRANULARITY; do
	for w in 1 2; do
		"$ckbin" exp -id "$id" -days 4 -scale 0.2 -seed 7 -workers "$w" > "$work/abl-w$w.txt" 2>/dev/null
	done
	if grep -q 'ablation failed' "$work/abl-w1.txt" "$work/abl-w2.txt"; then
		echo "check.sh: $id failed to build its ablated campaign" >&2; cat "$work/abl-w1.txt" "$work/abl-w2.txt" >&2; exit 1
	fi
	cmp "$work/abl-w1.txt" "$work/abl-w2.txt" || {
		echo "check.sh: $id at -workers 2 diverges from -workers 1" >&2; exit 1; }
done

echo "==> codec bench smoke (10^4-client single-step campaign; binary >= 5x smaller than JSONL)"
c4j="$work/c4.jsonl"
c4b="$work/c4.bin"
"$ckbin" simulate -days 1 -interval-hours 24 -scale 63.3 -seed 2014 -format jsonl -out "$c4j" >/dev/null 2>&1
"$ckbin" simulate -days 1 -interval-hours 24 -scale 63.3 -seed 2014 -format binary -out "$c4b" >/dev/null 2>&1
jsz="$(wc -c < "$c4j")"
bsz="$(wc -c < "$c4b")"
echo "  10^4 clients: jsonl $jsz bytes, binary $bsz bytes ($(awk "BEGIN{printf \"%.1f\", $jsz / $bsz}")x)"
awk "BEGIN{exit !($jsz >= 5 * $bsz)}" || {
	echo "check.sh: binary dataset not >= 5x smaller than JSONL ($jsz vs $bsz bytes)" >&2; exit 1; }

echo "==> loadgen smoke (adnsd answers; nonzero completed QPS, zero parse errors)"
lgsrv="$work/adnsd"
go build -o "$lgsrv" ./cmd/adnsd
"$lgsrv" -listen 127.0.0.1:19533 -quiet -zone loadgen.example &
lgpid=$!
pids="$pids $lgpid"
sleep 0.5
lgout="$("$ckbin" loadgen -target 127.0.0.1:19533 -qps 2000 -duration 1s -conns 2 -timeout 500ms)"
kill "$lgpid" 2>/dev/null || true
wait "$lgpid" 2>/dev/null || true
echo "$lgout"
case "$lgout" in
*'"received":0,'*) echo "check.sh: loadgen completed zero queries" >&2; exit 1 ;;
esac
case "$lgout" in
*'"parse_errors":0,'*) ;;
*) echo "check.sh: loadgen saw malformed responses" >&2; exit 1 ;;
esac

echo "==> socket-vantage smoke (dnsprobe -> fwdns -> adnsd; its JSONL feeds curtain analyze and both codecs; a 40-record answer arrives whole)"
# The §3.2 script from the real-socket vantage, against a loopback LDNS in
# front of a whoami authority. What it writes must be a dataset: analyze
# reads it (one carrier, a Table 3 row, no NaN from the artifacts a socket
# cannot fill), and a record with not-OK probe rows survives both codecs.
# The authority also serves one name with 40 A records (a 640 B answer):
# over UDP fwdns truncates it to TC=1, so dnsprobe sees all 40 only if its
# TCP retry reaches fwdns on the same address.
fwbin="$work/fwdns"
dpbin="$work/dnsprobe"
dpout="$work/probe.jsonl"
dprecs="$work/big.records"
go build -o "$fwbin" ./cmd/fwdns
go build -o "$dpbin" ./cmd/dnsprobe
for i in $(seq 1 40); do echo "big.records.test 60 A 10.0.1.$i"; done > "$dprecs"
"$lgsrv" -listen 127.0.0.1:19534 -quiet -zone whoami.test -records "$dprecs" >/dev/null 2>&1 &
dpapid=$!
pids="$pids $dpapid"
"$fwbin" -listen 127.0.0.1:19535 -upstream 127.0.0.1:19534 >/dev/null 2>&1 &
dpfpid=$!
pids="$pids $dpfpid"
sleep 0.5
"$dpbin" -resolvers 127.0.0.1 -port 19535 -domains a.whoami.test,b.whoami.test \
	-whoami whoami.test -rounds 2 -timeout 500ms > "$dpout"
"$dpbin" -resolvers 127.0.0.1 -port 19535 -domains big.records.test -timeout 500ms > "$work/probe-big.jsonl"
kill "$dpfpid" "$dpapid" 2>/dev/null || true
wait "$dpfpid" "$dpapid" 2>/dev/null || true
dpan="$("$ckbin" analyze -in "$dpout")"
echo "$dpan" | sed -n '1p;/^Table 3: LDNS pairs/,/^$/p'
case "$dpan" in
'dataset: 2 experiments, 1 carriers'*) ;;
*) echo "check.sh: analyze did not read dnsprobe's two rounds as one carrier" >&2; exit 1 ;;
esac
echo "$dpan" | awk '/^Table 3: LDNS pairs/ { t3 = 1; next } t3 && /^$/ { t3 = 0 } t3 && /^dnsprobe / { row = 1 } END { exit !row }' || {
	echo "check.sh: analyze printed no Table 3 row for the dnsprobe carrier" >&2; exit 1; }
case "$dpan" in
*NaN*) echo "check.sh: analyze prints NaN over a dnsprobe dataset" >&2; exit 1 ;;
esac
dpbig="$(sed -n 's/.*"answers":\[\([^]]*\)\].*/\1/p' "$work/probe-big.jsonl" | tr ',' '\n' | grep -c '10\.0\.1\.' || true)"
echo "  big.records.test through fwdns: $dpbig answers"
[ "$dpbig" -eq 40 ] || {
	echo "check.sh: dnsprobe got $dpbig of 40 answers through fwdns (a truncated answer's TCP retry went unanswered)" >&2
	cat "$work/probe-big.jsonl" >&2; exit 1; }
"$ckbin" convert -in "$dpout" -out "$work/probe.bin" -format binary >/dev/null 2>&1
"$ckbin" convert -in "$work/probe.bin" -out "$work/probe.back.jsonl" -format jsonl >/dev/null 2>&1
cmp "$dpout" "$work/probe.back.jsonl" || {
	echo "check.sh: a dnsprobe record does not survive jsonl -> binary -> jsonl" >&2; exit 1; }

echo "==> chaos smoke (fwdns vs scripted upstream outage; serve-stale keeps answering)"
# Two upstreams: a flakydns that is healthy for 3s then silently drops
# everything, and a dead port nothing listens on. The forwarder is warmed
# while the flaky upstream is up (TTL 1s, so the entries are stale — not
# fresh — by the outage), then load runs again mid-outage with the same
# seed/conns/names (the deterministic mix makes the outage queries a
# prefix of the warmed ones). Serve-stale must keep the answered rate
# near 1.0, and fwdns's snapshots on stdout (one asked for with SIGUSR1,
# one at drain) must show the breaker opened and stale serves happened.
flbin="$work/flakydns"
fwlog="$work/fwdns.log"
fwsnap="$work/fwdns.json"
go build -o "$flbin" ./cmd/flakydns
"$flbin" -listen 127.0.0.1:19541 -script ok:3s,down:600s -ttl 1 -quiet >/dev/null 2>&1 &
flpid=$!
pids="$pids $flpid"
"$fwbin" -listen 127.0.0.1:19540 -upstream 127.0.0.1:19541,127.0.0.1:19542 \
	-serve-stale 1h -probe 250ms -break-after 2 -hedge adaptive > "$fwsnap" 2> "$fwlog" &
fwpid=$!
pids="$pids $fwpid"
sleep 0.5
"$ckbin" loadgen -target 127.0.0.1:19540 -qps 600 -duration 1s -conns 2 -names 64 -seed 42 -timeout 500ms >/dev/null
sleep 2.5 # flakydns goes dark; the warm entries' 1s TTLs expire
chout="$("$ckbin" loadgen -target 127.0.0.1:19540 -qps 200 -duration 2s -conns 2 -names 64 -seed 42 -timeout 500ms)"
sleep 1 # let active probes finish opening the flaky upstream's breaker
# Ask for the report while fwdns runs: SIGUSR1 prints the snapshot as
# one line and fwdns keeps serving; SIGTERM then prints the final one.
kill -USR1 "$fwpid"
n=0
while [ "$(grep -c . "$fwsnap")" -lt 1 ] && [ "$n" -lt 20 ]; do
	sleep 0.1
	n=$((n + 1))
done
kill -0 "$fwpid" 2>/dev/null || {
	echo "check.sh: chaos smoke: fwdns exited on SIGUSR1" >&2; cat "$fwlog" >&2; exit 1; }
[ "$(grep -c . "$fwsnap")" -eq 1 ] && grep -E '"breaker_opens":[1-9]' "$fwsnap" >/dev/null || {
	echo "check.sh: chaos smoke: SIGUSR1 did not print one live report with the breaker open" >&2
	cat "$fwsnap" "$fwlog" >&2; exit 1; }
kill -TERM "$fwpid" 2>/dev/null || true
wait "$fwpid" 2>/dev/null || true
[ "$(grep -c . "$fwsnap")" -eq 2 ] || {
	echo "check.sh: chaos smoke: fwdns printed no final report after SIGTERM" >&2
	cat "$fwsnap" "$fwlog" >&2; exit 1; }
kill "$flpid" 2>/dev/null || true
wait "$flpid" 2>/dev/null || true
echo "$chout"
rate="$(echo "$chout" | awk -F'"answered_rate":' '{print $2}' | cut -d, -f1 | cut -d'}' -f1)"
if [ -z "$rate" ] || ! awk "BEGIN{exit !($rate >= 0.95)}"; then
	echo "check.sh: chaos smoke answered_rate $rate < 0.95 during outage" >&2
	cat "$fwlog" >&2
	exit 1
fi
grep -E '"breaker_opens":[1-9]' "$fwsnap" >/dev/null || {
	echo "check.sh: chaos smoke: breaker never opened" >&2; cat "$fwsnap" "$fwlog" >&2; exit 1; }
grep -E '"stale":[1-9]' "$fwsnap" >/dev/null || {
	echo "check.sh: chaos smoke: no stale serves during the outage" >&2; cat "$fwsnap" "$fwlog" >&2; exit 1; }

echo "==> loss-phase smoke (flakydns loss=0.5; loadgen sees roughly half answered)"
# Partial failure, not all-or-nothing: the deterministic error-diffusion
# drop loses exactly half the queries, so the answered rate must sit
# near 0.5 — well away from both the healthy 1.0 and the outage 0.0.
"$flbin" -listen 127.0.0.1:19543 -script loss=0.5:600s -quiet >/dev/null 2>&1 &
flpid2=$!
pids="$pids $flpid2"
sleep 0.3
lsout="$("$ckbin" loadgen -target 127.0.0.1:19543 -qps 400 -duration 1s -conns 2 -names 32 -seed 9 -timeout 300ms)"
kill "$flpid2" 2>/dev/null || true
wait "$flpid2" 2>/dev/null || true
echo "$lsout"
lrate="$(echo "$lsout" | awk -F'"answered_rate":' '{print $2}' | cut -d, -f1 | cut -d'}' -f1)"
if [ -z "$lrate" ] || ! awk "BEGIN{exit !($lrate >= 0.3 && $lrate <= 0.7)}"; then
	echo "check.sh: loss smoke answered_rate $lrate outside [0.3, 0.7] under 50% loss" >&2
	exit 1
fi

echo "==> daemon drain gate (adnsd, fwdns, flakydns, replicad: SIGTERM -> exit 0 within 7s with a drained line)"
# The smokes above stop their daemons with kill; wait || true, which would
# pass a daemon that hangs or fails at drain. Here each one must leave on
# its own: exit status 0 within 7 s (the 5 s drain deadline plus slack)
# and sigdrain's "drained cleanly" on stderr, and the DNS daemons' drain
# snapshot on stdout must carry a served count.
rdbin="$work/replicad"
go build -o "$rdbin" ./cmd/replicad
"$lgsrv" -listen 127.0.0.1:19544 -quiet -zone whoami.test > "$work/drain-adnsd.json" 2> "$work/drain-adnsd.log" &
dradnsd=$!
"$fwbin" -listen 127.0.0.1:19545 -upstream 127.0.0.1:19544 > "$work/drain-fwdns.json" 2> "$work/drain-fwdns.log" &
drfwdns=$!
"$flbin" -listen 127.0.0.1:19546 -quiet > "$work/drain-flakydns.json" 2> "$work/drain-flakydns.log" &
drflaky=$!
"$rdbin" -listen 127.0.0.1:19547 > "$work/drain-replicad.json" 2> "$work/drain-replicad.log" &
drrep=$!
pids="$pids $dradnsd $drfwdns $drflaky $drrep"
sleep 0.5
curl -sf -o /dev/null --max-time 2 http://127.0.0.1:19547/healthz || {
	echo "check.sh: replicad /healthz did not answer 200" >&2; cat "$work/drain-replicad.log" >&2; exit 1; }
for d in adnsd:$dradnsd fwdns:$drfwdns flakydns:$drflaky replicad:$drrep; do
	name="${d%%:*}"
	pid="${d#*:}"
	log="$work/drain-$name.log"
	snap="$work/drain-$name.json"
	kill -TERM "$pid"
	n=0
	while kill -0 "$pid" 2>/dev/null && [ "$n" -lt 70 ]; do
		sleep 0.1
		n=$((n + 1))
	done
	if kill -0 "$pid" 2>/dev/null; then
		echo "check.sh: $name still running 7s after SIGTERM" >&2; cat "$log" >&2; exit 1
	fi
	status=0
	wait "$pid" || status=$?
	[ "$status" -eq 0 ] || {
		echo "check.sh: $name exited $status after SIGTERM" >&2; cat "$log" >&2; exit 1; }
	grep "$name: drained cleanly" "$log" >/dev/null || {
		echo "check.sh: $name printed no drained line" >&2; cat "$log" >&2; exit 1; }
	case "$name" in
	replicad) ;;
	*) grep '"served":[0-9]' "$snap" >/dev/null || {
		echo "check.sh: $name printed no served count" >&2; cat "$snap" "$log" >&2; exit 1; } ;;
	esac
	echo "  $name: exit 0, $(grep -c . "$log") log lines"
done

echo "==> distributed campaign chaos (coordinator + 3 workers, one SIGKILLed mid-run; -out bytes == serial, checkpoint records == serial)"
# The acceptance scenario for the control plane: a coordinated campaign
# with a worker SIGKILLed after its first delivered range and a
# late-joining replacement must merge to bytes identical to the serial
# run. The campaign is sized (~1300 experiments) so the kill reliably
# lands mid-run.
dcck="$work/dc-ck"
dcser="$work/dc-serial.jsonl"
dcdist="$work/dc-distributed.jsonl"
dclog="$work/dc-coordinator.log"
dcvlog="$work/dc-victim.log"
# The serial reference also holds simulate to SIGUSR1: asked once its
# campaign runs, it prints a live report (the final report's keys, fewer
# experiments), keeps going, ends with the final report, and its dataset
# must still match the coordinated one.
dcsnap="$work/dc-serial.json"
dcslog="$work/dc-serial.log"
"$ckbin" simulate -days 8 -scale 0.5 -seed 7 -format jsonl -out "$dcser" > "$dcsnap" 2> "$dcslog" &
dcspid=$!
pids="$pids $dcspid"
n=0
while ! grep -q 'experiments from' "$dcslog" 2>/dev/null && [ "$n" -lt 400 ]; do
	sleep 0.05
	n=$((n + 1))
done
kill -USR1 "$dcspid" 2>/dev/null || {
	echo "check.sh: simulate exited before SIGUSR1: campaign too small" >&2; cat "$dcslog" >&2; exit 1; }
wait "$dcspid" || { echo "check.sh: simulate failed after SIGUSR1" >&2; cat "$dcslog" >&2; exit 1; }
[ "$(grep -c . "$dcsnap")" -eq 2 ] || {
	echo "check.sh: simulate printed $(grep -c . "$dcsnap") report line(s), want a live one and the final one (campaign too small?)" >&2
	cat "$dcsnap" "$dcslog" >&2; exit 1; }
for key in clients experiments seconds exp_per_sec bytes bytes_per_exp peak_rss_mb; do
	[ "$(grep -c "\"$key\":" "$dcsnap")" -eq 2 ] || {
		echo "check.sh: simulate's reports do not both carry \"$key\"" >&2; cat "$dcsnap" >&2; exit 1; }
done
dclive="$(sed -n '1s/.*"experiments":\([0-9]*\).*/\1/p' "$dcsnap")"
dcfinal="$(sed -n '2s/.*"experiments":\([0-9]*\).*/\1/p' "$dcsnap")"
[ "$dclive" -lt "$dcfinal" ] || {
	echo "check.sh: simulate's live report counts $dclive experiments, not fewer than the final $dcfinal" >&2
	cat "$dcsnap" >&2; exit 1; }
"$ckbin" coordinate -listen 127.0.0.1:19550 -checkpoint-dir "$dcck" \
	-days 8 -scale 0.5 -seed 7 -lease 16 -format jsonl -out "$dcdist" > "$work/dc-status.json" 2> "$dclog" &
dcpid=$!
pids="$pids $dcpid"
sleep 0.3
"$ckbin" worker -addr 127.0.0.1:19550 -id victim 2> "$dcvlog" &
dcvpid=$!
pids="$pids $dcvpid"
"$ckbin" worker -addr 127.0.0.1:19550 -id steady-a >/dev/null 2>&1 &
dcwa=$!
pids="$pids $dcwa"
"$ckbin" worker -addr 127.0.0.1:19550 -id steady-b >/dev/null 2>&1 &
dcwb=$!
pids="$pids $dcwb"
i=0
while [ "$i" -lt 200 ]; do
	grep -q delivered "$dcvlog" 2>/dev/null && break
	sleep 0.05
	i=$((i + 1))
done
kill -9 "$dcvpid" 2>/dev/null || true
# The replacement claims the campaign fingerprint explicitly: the
# coordinator verifies it at handshake.
"$ckbin" worker -addr 127.0.0.1:19550 -id replacement -days 8 -scale 0.5 -seed 7 >/dev/null 2>&1 &
dcwr=$!
pids="$pids $dcwr"
wait "$dcpid" || { echo "check.sh: coordinator failed" >&2; cat "$dclog" >&2; exit 1; }
wait "$dcvpid" 2>/dev/null || true
wait "$dcwa" 2>/dev/null || true
wait "$dcwb" 2>/dev/null || true
wait "$dcwr" 2>/dev/null || true
cmp "$dcser" "$dcdist" || {
	echo "check.sh: distributed campaign with a killed worker diverges from serial bytes" >&2
	cat "$dclog" >&2
	exit 1
}
# -out is rendered from the coordinator's memory; the durable merge is the
# checkpoint file. Its segments are the workers' own bytes in arrival
# order, so compare as a multiset: exactly the serial records, each once.
dcckj="$work/dc-ck.jsonl"
"$ckbin" convert -in "$dcck" -out "$dcckj" 2>/dev/null \
	|| { echo "check.sh: the coordinator's checkpoint does not scan" >&2; cat "$dclog" >&2; exit 1; }
LC_ALL=C sort "$dcser" > "$work/dc-serial.sorted"
LC_ALL=C sort "$dcckj" > "$work/dc-ck.sorted"
cmp "$work/dc-serial.sorted" "$work/dc-ck.sorted" || {
	echo "check.sh: the coordinator's checkpoint does not hold exactly the serial records" >&2
	cat "$dclog" >&2
	exit 1
}
grep -E 'returned [0-9]+ unfinished lease|reassigning' "$dclog" >/dev/null \
	|| echo "check.sh: note: victim died between leases this run (crash recovery not exercised; bytes still verified)"
tail -1 "$dclog"
cat "$work/dc-status.json"

echo "check.sh: all gates passed"
