#!/bin/sh
# End-to-end smoke test for dyndocd: build the binary, bring up two
# backends and a frontend, drive the full API surface through the
# frontend, then SIGTERM a backend and prove the graceful drain wrote a
# snapshot that restores to an identical collection.
#
# Exits non-zero on the first failed assertion. Needs only sh + curl +
# the go toolchain; runs in a few seconds.
set -eu

workdir=$(mktemp -d)
B1=127.0.0.1:7181
B2=127.0.0.1:7182
FE=127.0.0.1:7180
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    # The WAL backend writes a drain checkpoint on TERM; let every child
    # exit before deleting the directory they write into.
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "SMOKE FAIL: $*" >&2; exit 1; }

wait_healthy() { # $1 = host:port
    i=0
    while ! curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || fail "$1 did not become healthy"
        sleep 0.1
    done
}

echo "== build"
go build -o "$workdir/dyndocd" ./cmd/dyndocd

echo "== start two backends (one with a drain snapshot) and a frontend"
"$workdir/dyndocd" -listen "$B1" -shards 2 -snapshot "$workdir/b1.snap" >"$workdir/b1.log" 2>&1 &
pids="$pids $!"
b1_pid=$!
"$workdir/dyndocd" -listen "$B2" -shards 2 >"$workdir/b2.log" 2>&1 &
pids="$pids $!"
wait_healthy "$B1"
wait_healthy "$B2"
"$workdir/dyndocd" -mode frontend -listen "$FE" -backends "$B1,$B2" >"$workdir/fe.log" 2>&1 &
pids="$pids $!"
wait_healthy "$FE"

echo "== insert through the frontend"
body='{"docs":['
for id in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    body="$body{\"id\":$id,\"text\":\"smoke document $id with a needle inside\"},"
done
body="${body%,}]}"
out=$(curl -fsS -X POST -d "$body" "http://$FE/v1/insert")
echo "$out" | grep -q '"inserted":20' || fail "insert reply: $out"

echo "== query through the frontend"
out=$(curl -fsS "http://$FE/v1/count?q=needle")
echo "$out" | grep -q '"count":20' || fail "count reply: $out"
lines=$(curl -fsS "http://$FE/v1/find?q=needle" | wc -l)
[ "$lines" -eq 20 ] || fail "find streamed $lines lines, want 20"
lines=$(curl -fsS "http://$FE/v1/find?q=needle&limit=3" | wc -l)
[ "$lines" -eq 3 ] || fail "find limit=3 streamed $lines lines"
echo "== /v1/search: streaming, regex, and ranked top-k through the frontend"
lines=$(curl -fsS "http://$FE/v1/search?q=needle" | wc -l)
[ "$lines" -eq 20 ] || fail "search streamed $lines lines, want 20"
lines=$(curl -fsS "http://$FE/v1/search?q=needle&k=4" | wc -l)
[ "$lines" -eq 4 ] || fail "search k=4 streamed $lines lines"
# "ne.dle" must plan through the literal filter and still find all 20.
lines=$(curl -fsS "http://$FE/v1/search?q=ne.dle&regex=1" | wc -l)
[ "$lines" -eq 20 ] || fail "regex search streamed $lines lines, want 20"
out=$(curl -fsS "http://$FE/v1/search?q=needle&ranked=1&k=3")
[ "$(echo "$out" | wc -l)" -eq 3 ] || fail "ranked search returned $(echo "$out" | wc -l) docs, want 3"
echo "$out" | head -n 1 | grep -q '"score":' || fail "ranked search results carry no score: $out"
status=$(curl -s -o /dev/null -w '%{http_code}' "http://$FE/v1/search?q=a(&regex=1")
[ "$status" = 400 ] || fail "malformed regex returned status $status, want 400"

# extract returns the bytes base64-encoded; "c21va2UgZG9jdW1lbnQ=" is "smoke document"
out=$(curl -fsS "http://$FE/v1/extract?id=5&off=0&len=14")
echo "$out" | grep -q '"data":"c21va2UgZG9jdW1lbnQ="' || fail "extract reply: $out"

echo "== a batch with an in-batch duplicate is rejected atomically"
status=$(curl -s -o "$workdir/dup.json" -w '%{http_code}' -X POST \
    -d '{"docs":[{"id":100,"text":"a"},{"id":100,"text":"b"}]}' "http://$FE/v1/insert")
[ "$status" = 409 ] || fail "duplicate batch returned status $status"
grep -q '"error":"duplicate_id"' "$workdir/dup.json" || fail "duplicate batch error body: $(cat "$workdir/dup.json")"
out=$(curl -fsS "http://$FE/v1/count?q=needle")
echo "$out" | grep -q '"count":20' || fail "count changed after rejected batch: $out"

echo "== varz reports both backends healthy"
out=$(curl -fsS "http://$FE/varz")
echo "$out" | grep -q '"role":"frontend"' || fail "frontend varz: $out"
oks=$(echo "$out" | grep -o '"ok":true' | wc -l)
[ "$oks" -eq 2 ] || fail "varz reports $oks healthy backends, want 2"

echo "== count backend 1's docs, then SIGTERM it and assert a clean drain"
b1_count=$(curl -fsS "http://$B1/v1/count?q=needle" | sed 's/.*"count"://;s/[^0-9].*//')
kill -TERM "$b1_pid"
# A clean drain exits 0 after writing the snapshot.
if ! wait "$b1_pid"; then fail "backend 1 exited non-zero on SIGTERM (log: $(cat "$workdir/b1.log"))"; fi
[ -s "$workdir/b1.snap" ] || fail "drain did not write the snapshot"
grep -q 'drain snapshot:' "$workdir/b1.log" || fail "drain log missing snapshot line: $(cat "$workdir/b1.log")"
# Backend 1 is the frontend's backend 0: the fleet's documents live in
# its assignment row 0, which drains to a file of its own.
[ -s "$workdir/b1.snap.range0" ] || fail "drain did not write row 0's snapshot b1.snap.range0"

echo "== restart backend 1 from the drain snapshot; counts must match"
"$workdir/dyndocd" -listen "$B1" -shards 2 -snapshot "$workdir/b1.snap" >"$workdir/b1b.log" 2>&1 &
pids="$pids $!"
wait_healthy "$B1"
grep -q "restored snapshot $workdir/b1.snap.range0:" "$workdir/b1b.log" || fail "restart did not restore row 0: $(cat "$workdir/b1b.log")"
b1_count2=$(curl -fsS "http://$B1/v1/count?q=needle" | sed 's/.*"count"://;s/[^0-9].*//')
[ "$b1_count" = "$b1_count2" ] || fail "count after restore: $b1_count2, want $b1_count"
out=$(curl -fsS "http://$FE/v1/count?q=needle")
echo "$out" | grep -q '"count":20' || fail "fleet count after restore: $out"

echo "SMOKE OK: fleet count intact across a backend drain/restore (backend 1 held $b1_count docs)"

echo "== durability: start a WAL backend, insert, kill -9, restart, nothing lost"
B3=127.0.0.1:7183
"$workdir/dyndocd" -listen "$B3" -shards 2 -wal "$workdir/b3wal" -wal-checkpoint 4096 >"$workdir/b3.log" 2>&1 &
pids="$pids $!"
b3_pid=$!
wait_healthy "$B3"
body='{"docs":['
for id in 201 202 203 204 205 206 207 208 209 210; do
    body="$body{\"id\":$id,\"text\":\"durable document $id with a needle inside\"},"
done
body="${body%,}]}"
out=$(curl -fsS -X POST -d "$body" "http://$B3/v1/insert")
echo "$out" | grep -q '"inserted":10' || fail "wal insert reply: $out"
out=$(curl -fsS -X POST -d '{"ids":[205]}' "http://$B3/v1/delete")
echo "$out" | grep -q '"deleted":1' || fail "wal delete reply: $out"

# The replies above were sent only after the WAL records were fsynced,
# so SIGKILL — no drain, no snapshot — must lose nothing.
kill -9 "$b3_pid"
wait "$b3_pid" 2>/dev/null || true

"$workdir/dyndocd" -listen "$B3" -shards 2 -wal "$workdir/b3wal" -wal-checkpoint 4096 >"$workdir/b3b.log" 2>&1 &
pids="$pids $!"
wait_healthy "$B3"
grep -q 'recovered ' "$workdir/b3b.log" || fail "restart log missing recovery line: $(cat "$workdir/b3b.log")"
out=$(curl -fsS "http://$B3/v1/count?q=needle")
echo "$out" | grep -q '"count":9' || fail "count after kill -9 restart: $out (want 9: 10 inserted, 1 deleted)"
out=$(curl -fsS "http://$B3/v1/extract?id=203&off=0&len=16")
echo "$out" | grep -q '"data":"ZHVyYWJsZSBkb2N1bWVudA=="' || fail "extract after kill -9: $out"
status=$(curl -s -o /dev/null -w '%{http_code}' "http://$B3/v1/extract?id=205&off=0&len=4")
[ "$status" = 404 ] || fail "deleted doc 205 resurrected after kill -9 (status $status)"

echo "SMOKE OK: WAL backend survived kill -9 with all acknowledged writes intact"

echo "== replication: R=2 fleet serves every read with one backend killed -9"
B4=127.0.0.1:7184
B5=127.0.0.1:7185
FE2=127.0.0.1:7186
"$workdir/dyndocd" -listen "$B4" -shards 2 >"$workdir/b4.log" 2>&1 &
pids="$pids $!"
b4_pid=$!
"$workdir/dyndocd" -listen "$B5" -shards 2 >"$workdir/b5.log" 2>&1 &
pids="$pids $!"
wait_healthy "$B4"
wait_healthy "$B5"
"$workdir/dyndocd" -mode frontend -listen "$FE2" -backends "$B4,$B5" \
    -replication 2 -op-timeout 2s -retries 4 -retry-base 20ms \
    -breaker-failures 3 -breaker-cooldown 500ms >"$workdir/fe2.log" 2>&1 &
pids="$pids $!"
wait_healthy "$FE2"

out=$(curl -fsS "http://$FE2/v1/assignment")
echo "$out" | grep -q '"replication":2' || fail "assignment table not replicated: $out"
body='{"docs":['
for id in $(seq 301 330); do
    body="$body{\"id\":$id,\"text\":\"replicated document $id with a needle inside\"},"
done
body="${body%,}]}"
out=$(curl -fsS -X POST -d "$body" "http://$FE2/v1/insert")
echo "$out" | grep -q '"inserted":30' || fail "replicated insert reply: $out"
# Each backend holds its rows outside the default collection; its ladder
# report must still count their symbols.
out=$(curl -fsS "http://$FE2/varz")
syms=$(echo "$out" | grep -o '"symbols":[1-9][0-9]*' | wc -l)
[ "$syms" -eq 2 ] || fail "frontend varz shows symbols for $syms of 2 replicated backends: $out"
status=$(curl -s -o /dev/null -w '%{http_code}' "http://$FE2/readyz")
[ "$status" = 200 ] || fail "healthy fleet readyz returned $status"

# Both rows live on both backends, so one fleet count is one backend
# request: the rows' cover is a single group.
count_requests() { # sum of both backends' /v1/count requests
    n=0
    for b in "$B4" "$B5"; do
        r=$(curl -fsS "http://$b/varz" | grep -o '"count":{"requests":[0-9]*' | sed 's/.*://')
        n=$((n + ${r:-0}))
    done
    echo "$n"
}
before=$(count_requests)
out=$(curl -fsS "http://$FE2/v1/count?q=needle")
echo "$out" | grep -q '"count":30' || fail "healthy replicated count: $out"
after=$(count_requests)
[ $((after - before)) -eq 1 ] || fail "one fleet count sent $((after - before)) backend requests, want 1"

kill -9 "$b4_pid"
wait "$b4_pid" 2>/dev/null || true

# Reads must answer — correctly and repeatedly — with a replica dead.
for i in 1 2 3 4 5; do
    out=$(curl -fsS "http://$FE2/v1/count?q=needle") || fail "count #$i failed with one replica dead"
    echo "$out" | grep -q '"count":30' || fail "count #$i with one replica dead: $out"
    echo "$out" | grep -q '"partial":true' && fail "count #$i silently partial: $out"
done
lines=$(curl -fsS "http://$FE2/v1/find?q=needle" | grep -c '"doc"')
[ "$lines" -eq 30 ] || fail "find with one replica dead streamed $lines lines, want 30"

# Writes need the full replica set: they must fail loudly, not half-apply
# in silence.
status=$(curl -s -o "$workdir/deadwrite.json" -w '%{http_code}' -X POST \
    -d '{"docs":[{"id":400,"text":"doomed"}]}' "http://$FE2/v1/insert")
[ "$status" = 502 ] || fail "insert with a dead replica returned status $status, want 502"
grep -q '"error"' "$workdir/deadwrite.json" || fail "dead-replica insert error body: $(cat "$workdir/deadwrite.json")"

# The tripped breaker surfaces in /readyz: degraded, naming the backend.
ready=200
for i in $(seq 1 50); do
    ready=$(curl -s -o "$workdir/readyz.json" -w '%{http_code}' "http://$FE2/readyz")
    [ "$ready" = 503 ] && break
    sleep 0.1
done
[ "$ready" = 503 ] || fail "readyz stayed $ready with a dead replica, want 503"
grep -q "$B4" "$workdir/readyz.json" || fail "readyz does not name the dead backend: $(cat "$workdir/readyz.json")"

echo "SMOKE OK: replicated fleet served every read through a kill -9, refused unsafe writes, reported degraded"
