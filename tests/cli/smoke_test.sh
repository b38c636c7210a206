#!/usr/bin/env bash
# End-to-end smoke test for the skydia CLI: generate -> build -> check ->
# stats -> render -> query round trip, exit-code contract for bad
# invocations, and a golden diff for batched query output.
#
# Usage: smoke_test.sh <path-to-skydia-binary> <path-to-tests/cli-dir>
set -u

SKYDIA="$1"
GOLDEN_DIR="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

failures=0
step() { echo "--- $*"; }
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

expect_ok() {
  local what="$1"
  shift
  if ! "$@"; then fail "$what: expected exit 0, got $?"; fi
}

expect_err() {
  local what="$1"
  shift
  if "$@" 2>/dev/null; then fail "$what: expected non-zero exit"; fi
}

# Expects exit code 1 exactly and `message` on stderr: a process killed by
# `timeout` or a signal exits non-zero too, without saying why.
expect_exit1() {
  local what="$1"
  local message="$2"
  shift 2
  "$@" > /dev/null 2> stderr.txt
  local rc=$?
  if [ "$rc" -ne 1 ]; then fail "$what: expected exit 1, got $rc"; fi
  grep -qF -- "$message" stderr.txt ||
    fail "$what: stderr lacks \"$message\""
}

step "generate a deterministic workload"
expect_ok "generate" "$SKYDIA" generate --n 32 --domain 64 --seed 7 \
  --out points.csv

step "build one diagram per semantics"
expect_ok "build quadrant" "$SKYDIA" build --in points.csv --type quadrant \
  --out quadrant.skd
expect_ok "build global" "$SKYDIA" build --in points.csv --type global \
  --out global.skd
expect_ok "build dynamic" "$SKYDIA" build --in points.csv --type dynamic \
  --out dynamic.skd

step "--threads parallelises only dynamic scanning; the bytes never change"
for type in quadrant global dynamic; do
  if ! "$SKYDIA" build --in points.csv --type "$type" --threads 4 \
      --out "$type.t4.skd" > "$type.t4.out"; then
    fail "build $type --threads 4: expected exit 0"
  fi
  cmp -s "$type.skd" "$type.t4.skd" ||
    fail "build $type --threads 4 wrote other bytes than --threads 1"
done
grep -qF "(staircase, 1 thread(s))" quadrant.t4.out ||
  fail "build quadrant --threads 4 does not name the sequential build"
grep -qF "(scanning, 4 thread(s))" dynamic.t4.out ||
  fail "build dynamic --threads 4 does not name its 4 threads"

step "--algo auto (the staircase scan) writes Algorithm 3's bytes"
for type in quadrant global; do
  expect_ok "build $type --algo scanning" "$SKYDIA" build --in points.csv \
    --type "$type" --algo scanning --out "$type.scanning.skd"
  cmp -s "$type.skd" "$type.scanning.skd" ||
    fail "build $type --algo auto wrote other bytes than --algo scanning"
done

step "check validates every blob against the semantics it states"
for type in quadrant global dynamic; do
  if ! "$SKYDIA" check "$type.skd" > "check_$type.out"; then
    fail "check $type: expected exit 0"
  fi
  grep -qF "sampled $type queries verified" "check_$type.out" ||
    fail "check $type does not name the $type oracle"
done

step "stats names each blob's semantics"
for kind in "quadrant cell" "global cell" "dynamic subcell"; do
  type="${kind%% *}"
  "$SKYDIA" stats --diagram "$type.skd" > "stats_$type.out" ||
    fail "stats $type: expected exit 0"
  grep -qxF "kind: $kind diagram" "stats_$type.out" ||
    fail "stats $type does not print \"kind: $kind diagram\""
done

step "render draws every blob, with labels only on request"
points=$(($(wc -l < points.csv) - 1))
for type in quadrant global dynamic; do
  for labels in "" "--labels"; do
    what="render $type${labels:+ $labels}"
    svg="$type${labels:+.labels}.svg"
    # shellcheck disable=SC2086  # $labels is one flag or nothing
    expect_ok "$what" "$SKYDIA" render --diagram "$type.skd" --out "$svg" \
      $labels
    [ "$(head -c 4 "$svg")" = "<svg" ] || fail "$what: does not open <svg"
    [ "$(tail -n 1 "$svg")" = "</svg>" ] || fail "$what: does not close </svg>"
    circles=$(grep -c "<circle" "$svg")
    [ "$circles" -eq "$points" ] ||
      fail "$what: $circles circles for $points points"
    texts=$(grep -c "<text" "$svg")
    want_texts=0
    [ -n "$labels" ] && want_texts=$points
    [ "$texts" -eq "$want_texts" ] ||
      fail "$what: $texts labels, expected $want_texts"
  done
done

step "a cell blob serves the semantics its table states"
# At (5, 5) the quadrant skyline is {b}; the global one adds a, alone in the
# third quadrant.
printf 'label,x,y\na,2,2\nb,8,8\n' > two.csv
for type in quadrant global; do
  expect_ok "build two-point $type" "$SKYDIA" build --in two.csv \
    --type "$type" --out "two_$type.skd"
done
[ "$("$SKYDIA" query two_global.skd --qx 5 --qy 5 --exact)" = \
  "skyline((5, 5)) = {a, b}" ] ||
  fail "query --exact on a global blob does not print the global skyline"
[ "$("$SKYDIA" query two_quadrant.skd --qx 5 --qy 5 --exact)" = \
  "skyline((5, 5)) = {b}" ] ||
  fail "query --exact on a quadrant blob does not print the quadrant skyline"

step "query a blob with a points CSV (golden output)"
cat > queries.csv <<'EOF'
x,y
0,0
5,5
13,7
31,2
63,63
-5,70
100,100
EOF
if ! "$SKYDIA" query quadrant.skd queries.csv > batch.out; then
  fail "query batch: expected exit 0"
fi
if ! diff -u "$GOLDEN_DIR/query_golden.txt" batch.out; then
  fail "query batch output differs from tests/cli/query_golden.txt"
fi

step "single-point and exact queries answer on every semantics"
expect_ok "query quadrant point" "$SKYDIA" query quadrant.skd --qx 5 --qy 5
expect_ok "query global exact" "$SKYDIA" query global.skd --qx 5 --qy 5 \
  --exact
expect_ok "query dynamic exact" "$SKYDIA" query dynamic.skd --qx 5 --qy 5 \
  --exact

step "batched query with stats and threads"
if ! "$SKYDIA" query quadrant.skd queries.csv --threads 2 --stats \
    > stats.out; then
  fail "query --stats: expected exit 0"
fi
grep -q "engine stats: served=" stats.out || \
  fail "query --stats output is missing engine stats"

step "bench mode smoke"
if ! "$SKYDIA" query quadrant.skd queries.csv --bench --repeat 1 \
    --threads 2 > bench.out; then
  fail "query --bench: expected exit 0"
fi
grep -q "ns/query" bench.out || fail "bench output is missing ns/query lines"

step "--trace writes loadable Chrome-trace JSON (build and query)"
expect_ok "build --report --trace" "$SKYDIA" build --in points.csv \
  --type dynamic --threads 2 --report --trace build_trace.json \
  --out traced.skd
if ! "$SKYDIA" build --in points.csv --type quadrant --report \
    --out traced.skd | grep -q "build report:"; then
  fail "build --report output is missing the build report"
fi
# --threads 2 splits a batch of 1024 or more points across a two-thread
# pool, so the trace carries one query.shard span per pool-worker track.
{
  echo "x,y"
  for i in $(seq 0 1199); do echo "$((i % 64)),$(((i * 7) % 64))"; done
} > many_queries.csv
expect_ok "query --trace" "$SKYDIA" query traced.skd many_queries.csv \
  --threads 2 --trace query_trace.json
if command -v python3 >/dev/null 2>&1; then
  # The golden contract: both files parse as Chrome trace-event JSON and
  # contain the span families the issue promises — build phases and stripe
  # tracks from `build`, batch/shard spans from `query`.
  python3 - build_trace.json query_trace.json <<'PYEOF' || \
    fail "trace JSON golden check"
import json, sys

def names(path, key):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    assert isinstance(events, list) and events, f"{path}: no traceEvents"
    for e in events:
        assert e["ph"] in ("X", "C", "M"), e
        if e["ph"] == "X":
            assert e["dur"] >= 0 and e["ts"] >= 0, e
    return {e[key] for e in events if key in e}

build_names = names(sys.argv[1], "name")
for want in ("build", "grid", "stripes", "merge", "freeze", "stripe.scan"):
    assert want in build_names, f"build trace missing span {want!r}"
assert "thread_name" in build_names, "build trace has no named tracks"

query_names = names(sys.argv[2], "name")
for want in ("load", "index.build", "query.batch", "query.shard"):
    assert want in query_names, f"query trace missing span {want!r}"
with open(sys.argv[2], encoding="utf-8") as f:
    query_events = json.load(f)["traceEvents"]
track_names = {e["tid"]: e["args"]["name"] for e in query_events
               if e["ph"] == "M" and e["name"] == "thread_name"}
shard_tracks = [track_names.get(e["tid"], "") for e in query_events
                if e["ph"] == "X" and e["name"] == "query.shard"]
assert len(shard_tracks) == 2, f"expected 2 query.shard spans: {shard_tracks}"
assert all(t.startswith("pool-worker-") for t in shard_tracks), shard_tracks
print("trace JSON golden check passed")
PYEOF
else
  echo "python3 unavailable; skipping trace JSON parse" >&2
fi

step "bad invocations exit non-zero"
expect_err "query without arguments" "$SKYDIA" query
expect_err "query missing blob" "$SKYDIA" query missing.skd queries.csv
expect_err "query missing csv" "$SKYDIA" query quadrant.skd missing.csv
expect_err "query --qx without --qy" "$SKYDIA" query quadrant.skd --qx 1
expect_err "unknown command" "$SKYDIA" frobnicate

step "each command rejects flags it does not read, and unparsed integers"
expect_exit1 "query --semantics" "unknown flag --semantics for query" \
  "$SKYDIA" query quadrant.skd queries.csv --semantics global
expect_exit1 "query --batch-threshold" \
  "unknown flag --batch-threshold for query" \
  "$SKYDIA" query quadrant.skd queries.csv --batch-threshold 1
expect_exit1 "generate --n abc" "--n expects an integer, got \"abc\"" \
  "$SKYDIA" generate --n abc --out never.csv
expect_exit1 "serve --threads" "unknown flag --threads for serve" \
  timeout 5 "$SKYDIA" serve quadrant.skd --port 0 --threads 4

step "a count or size must not be negative, and a port must fit 16 bits"
# Unchecked, each of these would wrap: --n -1 aborts on std::length_error,
# --samples -1 asks for 2^64 samples, and serve serves on.
nonneg() { echo "--$1 expects a non-negative integer, got \"-1\""; }
expect_exit1 "generate --n -1" "$(nonneg n)" \
  "$SKYDIA" generate --n -1 --out never.csv
expect_exit1 "check --samples -1" "$(nonneg samples)" \
  timeout 5 "$SKYDIA" check quadrant.skd --samples -1
expect_exit1 "build --threads -1" "$(nonneg threads)" \
  "$SKYDIA" build --in points.csv --type dynamic --threads -1 --out never.skd
expect_exit1 "query --threads -1" "$(nonneg threads)" \
  "$SKYDIA" query quadrant.skd queries.csv --threads -1
expect_exit1 "query --repeat -1" "$(nonneg repeat)" \
  "$SKYDIA" query quadrant.skd queries.csv --bench --repeat -1
for flag in workers cache-entries max-connections mutation-max-pending; do
  expect_exit1 "serve --$flag -1" "$(nonneg "$flag")" \
    timeout 5 "$SKYDIA" serve quadrant.skd --port 0 --crash-trace none \
    "--$flag" -1
done
for port in 70000 -1; do
  expect_exit1 "serve --port $port" "port $port is outside [0, 65535]" \
    timeout 5 "$SKYDIA" serve quadrant.skd --port "$port" --crash-trace none
done

step "corrupt blobs are rejected by check and query"
head -c 64 quadrant.skd > corrupt.skd
expect_err "check corrupt" "$SKYDIA" check corrupt.skd
expect_err "query corrupt" "$SKYDIA" query corrupt.skd queries.csv

if [ "$failures" -ne 0 ]; then
  echo "$failures smoke-test failure(s)" >&2
  exit 1
fi
echo "cli smoke test passed"
