#!/usr/bin/env bash
# Offline CI: build, test and lint the workspace, run the §7 repro and the
# audit at a small scale, then drive `cfq serve` end to end (goldens,
# scheduler books, backend agreement, durability). No stage writes a
# timing report: `benchmark/run.sh` is the one timing instrument. Everything
# resolves from the vendored path dependencies — no network access
# required.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every result file a stage writes goes here, not into the repository: the
# stages assert on what the files say, and the run must leave the tree as
# it found it (checked at the end).
TREE_BEFORE="$(git status --porcelain)"
OUT="$(mktemp -d)"
export CFQ_AUDIT_OUT="$OUT/BENCH_audit.json"

echo "== cargo build --release --workspace"
# --workspace matters: the root manifest is both a workspace and the
# facade package, so a bare `cargo build` would skip the member crates —
# including the `cfq` binary the serve/scheduler stages drive below.
cargo build --release --workspace

echo "== cargo test -q (root package: integration + facade tests)"
cargo test -q

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== cargo clippy --workspace -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "WARNING: clippy not installed; skipping lint stage"
fi

echo "== cargo miri (undefined-behavior sanitizer substitute)"
if cargo miri --version >/dev/null 2>&1; then
  # Miri can't run FFI/threads-heavy tests; scope it to the pure data
  # structure crates: types, the constraint algebra, and the metrics
  # registry (all single-threaded unit tests).
  MIRI_CRATES="cfq-types cfq-constraints cfq-obs"
  echo "miri crates: $MIRI_CRATES"
  for c in $MIRI_CRATES; do
    cargo miri test -p "$c" -q
  done
else
  echo "WARNING: miri not installed (offline toolchain); skipping UB-check stage"
fi

echo "== chunk-sharded counter merge model (loom/tsan substitute)"
# Neither loom nor ThreadSanitizer is available offline; this test
# exhaustively enumerates chunk partitions and merge permutations of the
# parallel counter and checks bit-identical agreement with the sequential
# scan (see crates/mining/tests/merge_model.rs).
cargo test -q -p cfq-mining --test merge_model

echo "== cfq model --inject: exhaustive concurrency model check (writes BENCH_model.json)"
# Explores every interleaving of the engine's live protocols (epoch swap,
# single-flight mining, cache eviction, counter merge) and then re-runs
# each with seeded bugs enabled — the command exits nonzero if any clean
# protocol has a violation OR any injected bug goes uncaught.
./target/release/cfq model --inject --out "$OUT/BENCH_model.json"
test -s "$OUT/BENCH_model.json"
grep -q '"all_clean":true' "$OUT/BENCH_model.json" \
  || { echo "model check recorded protocol violations"; exit 1; }
grep -q '"all_injections_caught":true' "$OUT/BENCH_model.json" \
  || { echo "a seeded bug went uncaught (checker lost its teeth)"; exit 1; }
head -c 400 "$OUT/BENCH_model.json"; echo

echo "== cfq lint --workspace: token-level invariant pass over the sources"
# unwrap/expect in request paths, undocumented unsafe, metric-name
# hygiene, unbound span guards, missing docs on public items.
./target/release/cfq lint --workspace

echo "== benchmark: unit tests + --smoke (the public signatures it imports, answers on a second database)"
# benchmark/ is a package of its own with path dependencies on the crates:
# it stops compiling when a signature it imports drifts
# (count_supports_with, generate_candidates, trim_db, FrequentSets::iter,
# apriori, ...), and --smoke runs all four workloads for a second each on
# the Quest seed-7 database at scale 0.02, checking every answer against
# its Apriori+ oracle. Builds into target/benchmark, as the driver does.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke > /dev/null \
  || { echo "benchmark --smoke failed (an answer did not verify, or the build broke)"; exit 1; }

echo "== repro fig8a at smoke scale"
CFQ_SCALE="${CFQ_SCALE:-0.02}" cargo run -p cfq-bench --release --bin repro -- fig8a

echo "== repro audit (static plan soundness, one plan per query; writes BENCH_audit.json)"
CFQ_SCALE="${CFQ_SCALE:-0.02}" cargo run -p cfq-bench --release --bin repro -- audit
test -s "$OUT/BENCH_audit.json"
grep -q '"violations":0' "$OUT/BENCH_audit.json" || { echo "audit recorded violations"; exit 1; }
echo "  zero violations over $(grep -o '"workload"' "$OUT/BENCH_audit.json" | wc -l) plans"
head -c 400 "$OUT/BENCH_audit.json"; echo

echo "== engine: concurrent-session smoke (cfq-engine)"
cargo test -q -p cfq-engine --test concurrency

echo "== cfq serve: boot, drive family b cold and fig8a twice, scrape metrics"
SERVE_DIR="$(mktemp -d)"
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SERVE_DIR"' EXIT
./target/release/cfq gen --items 60 --transactions 400 --avg-trans-len 8 --patterns 40 \
  --out "$SERVE_DIR/tx.txt"
./target/release/cfq gen-catalog --items 60 --num Price:uniform:0:1000 --cat Type:6 \
  --out "$SERVE_DIR/catalog.txt"
./target/release/cfq serve --data "$SERVE_DIR/tx.txt" --catalog "$SERVE_DIR/catalog.txt" \
  --listen 127.0.0.1:0 --metrics-addr 127.0.0.1:0 --slow-ms 0 \
  > "$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^metrics on ' "$SERVE_DIR/serve.log" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SERVE_DIR/serve.log")"
MPORT="$(sed -n 's/^metrics on http:.*:\([0-9][0-9]*\)$/\1/p' "$SERVE_DIR/serve.log")"
if [ -z "$PORT" ] || [ -z "$MPORT" ]; then
  echo "serve did not come up:"; cat "$SERVE_DIR/serve.log"; exit 1
fi

# Drive family `b` once and the Fig. 8(a) query twice over one connection
# (bash /dev/tcp — no netcat in the image), then pull the in-band metrics
# dump.
FIG8A='max(S.Price) <= min(T.Price)'
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf ':support 0.1\n' >&3
read -r SUPPORT_REPLY <&3
echo "$SUPPORT_REPLY" | grep -q 'set to 0.1' || { echo ":support failed: $SUPPORT_REPLY"; exit 1; }
# Family `b` on the empty cache: Figs. 2-3 narrow S to prices up to T's
# dearest frequent item and T to prices from S's cheapest, so T's frequent
# items lie inside the universe S mines and caches. T must hit that entry,
# and the opening must cost exactly one mining pass.
FAMILY_B='min(S.Price) >= 300 & max(T.Price) <= 700 & max(S.Price) <= min(T.Price)'
mining_passes() {
  exec 4<>"/dev/tcp/127.0.0.1/$MPORT"
  printf 'GET /metrics HTTP/1.0\r\n\r\n' >&4
  sed -n 's/^cfq_mining_passes_total \([0-9][0-9]*\)\r*$/\1/p' <&4
  exec 4<&- 4>&-
}
PASSES_BEFORE="$(mining_passes)"
printf '%s\n' "$FAMILY_B" >&3
read -r FAMILY_B_REPLY <&3
PASSES_AFTER="$(mining_passes)"
printf '%s\n' "$FIG8A" >&3
read -r COLD_REPLY <&3
printf '%s\n' "$FIG8A" >&3
read -r WARM_REPLY <&3
# In-band metrics for a script are the envelope's (`:metrics` prints the
# same text, but over many lines): ask through the v1 envelope, then pull
# the full Prometheus text from the HTTP scrape listener for parsing.
printf '{"v":1,"cmd":"metrics"}\n:quit\n' >&3
METRICS_ENVELOPE="$(head -1 <&3)"
exec 3<&- 3>&-

echo "  cold: $COLD_REPLY"
echo "  warm: $WARM_REPLY"
echo "$COLD_REPLY" | grep -q 'valid pairs' || { echo "cold fig8a query failed"; exit 1; }
# Provenance, not `0 db scans`, says where a lattice came from: a cold run
# that stops at level 1 reads the item-support column and scans nothing.
# Level 2 is read off the epoch's pair-support column and touches no row
# either, but `db scans` counts the levels >= 2 counted against the data:
# a column read books its level's scan with zero rows, so a cold run that
# reaches level 2 reports at least one (tests/engine_props.rs pins the same
# on a side whose last level is 2).
echo "$WARM_REPLY" | grep -q '| 0 db scans | \[S\] cache hit .* \[T\] cache hit ' \
  || { echo "warm fig8a run was not answered from the cache"; exit 1; }
echo "  family b, cold: $FAMILY_B_REPLY"
for COLD in "$COLD_REPLY" "$FAMILY_B_REPLY"; do
  echo "$COLD" | grep -q '| [1-9][0-9]* db scans | \[S\] freshly mined (cold) ' \
    || { echo "a cold reply did not book its level-2 scan: $COLD"; exit 1; }
done
echo "$FAMILY_B_REPLY" | grep -q '\[T\] cache hit' \
  || { echo "family b's T side did not hit the entry its S side inserted"; exit 1; }
[ -n "$PASSES_BEFORE" ] && [ "$PASSES_AFTER" = $((PASSES_BEFORE + 1)) ] \
  || { echo "family b cost ${PASSES_BEFORE:-?} -> ${PASSES_AFTER:-?} mining passes, not one"; exit 1; }
echo "$METRICS_ENVELOPE" | grep -q '"v":1' \
  || { echo "envelope metrics reply malformed: $METRICS_ENVELOPE"; exit 1; }
echo "$METRICS_ENVELOPE" | grep -q 'cfq_queries_total' \
  || { echo "envelope metrics missing counters: $METRICS_ENVELOPE"; exit 1; }

exec 4<>"/dev/tcp/127.0.0.1/$MPORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&4
SCRAPE="$(cat <&4)"
exec 4<&- 4>&-
echo "$SCRAPE" | grep -q '200 OK' || { echo "metrics listener did not answer"; exit 1; }
echo "$SCRAPE" | grep -q '^cfq_queries_total 3$' \
  || { echo "metrics disagree: expected cfq_queries_total 3"; echo "$SCRAPE"; exit 1; }
LATTICE_HITS="$(echo "$SCRAPE" | sed -n 's/^cfq_lattice_hits_total \([0-9][0-9]*\)$/\1/p')"
[ "${LATTICE_HITS:-0}" -ge 1 ] \
  || { echo "metrics disagree: expected cfq_lattice_hits_total >= 1"; echo "$SCRAPE"; exit 1; }

# SIGINT must drain and exit cleanly, not abort.
kill -INT "$SERVE_PID"
wait "$SERVE_PID" || { echo "serve exited non-zero on SIGINT"; cat "$SERVE_DIR/serve.log"; exit 1; }
SERVE_PID=""
grep -q 'shut down cleanly' "$SERVE_DIR/serve.log" \
  || { echo "serve did not shut down cleanly"; cat "$SERVE_DIR/serve.log"; exit 1; }

echo "== cfq serve: wire goldens (six benchmark families + nine pair-formation branches x {every item, one 250-item window} x {cached, bypass_cache under full, cap1, apriori+})"
# Each reply's timing-free answer prefix — everything before `,"db_scans":`,
# the same style of prefix comparison the backend stage uses — from the
# cached path and from the one-shot optimizer under each strategy family
# must equal the file recorded with the *previous* commit's binary under
# tests/golden/wire. The benchmark's identical-answer hash only compares
# replies within one run; this is the gate that catches a byte of drift in
# the wire (field order, whitespace, integer formatting, pair or set order)
# between commits. Re-record (scripts/wire_golden.sh BINARY DIR --record)
# only with the parent commit's binary, and only when a PR changes the
# answer on purpose.
bash scripts/wire_golden.sh ./target/release/cfq tests/golden/wire

echo "== cfq query --explain: ledger golden (204 cases; default path, --threads 2, --backend auto)"
# What each run *did* — scans, scan volume, trim drops, per-level
# candidates and frequent sets, checks, pruned, V^k — must equal the
# recorded file (tests/ledger_golden.rs says which binaries recorded it; the
# confined stage below pins the recording itself).
# tests/ledger_golden.rs replays the cases in-process; this drives the CLI.
for flags in "" "--threads 2" "--backend auto"; do
  # shellcheck disable=SC2086
  bash scripts/ledger_golden.sh ./target/release/cfq tests/golden/ledger $flags
done

echo "== goldens, confined: a re-recording moved only what scan accounting may move"
# The two stages above pin the binary to the recordings; this one pins the
# recordings to the ones they replaced — the parent commit's, or HEAD's
# while a re-recording is still uncommitted. Masked to scan count and scan
# volume, the ledger must be byte-identical to its predecessor; the wire
# prefixes (which end before `db_scans`) byte-identical outright.
REPLACED="$(git diff --quiet HEAD -- tests/golden && echo HEAD~1 || echo HEAD)"
bash scripts/ledger_golden.sh ./target/release/cfq tests/golden/ledger --confined "$REPLACED"
bash scripts/wire_golden.sh ./target/release/cfq tests/golden/wire --confined "$REPLACED"

echo "== scheduler: parallel cold clients mine, join or hit, and the books balance, under a small admission gate"
# The same data files as the serve stage. Two in flight plus two queued
# is exactly the four clients below: the gate must admit all of them
# (overload past it is serve.rs's overload_rejections_over_tcp_are_typed_envelopes).
./target/release/cfq serve --data "$SERVE_DIR/tx.txt" --catalog "$SERVE_DIR/catalog.txt" \
  --listen 127.0.0.1:0 --metrics-addr 127.0.0.1:0 --max-inflight 2 --queue-depth 2 \
  > "$SERVE_DIR/sched.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^metrics on ' "$SERVE_DIR/sched.log" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SERVE_DIR/sched.log")"
MPORT="$(sed -n 's/^metrics on http:.*:\([0-9][0-9]*\)$/\1/p' "$SERVE_DIR/sched.log")"
if [ -z "$PORT" ] || [ -z "$MPORT" ]; then
  echo "scheduler serve did not come up:"; cat "$SERVE_DIR/sched.log"; exit 1
fi

# Four parallel clients: two identical at 10% support, two overlapping at
# 15%. All four speak the v1 envelope, so each reply is one JSON line.
sched_client() {
  exec 5<>"/dev/tcp/127.0.0.1/$PORT"
  printf '{"v":1,"cmd":"query","req":{"query":"max(S.Price) <= min(T.Price)","support":{"frac":%s}}}\n:quit\n' "$1" >&5
  cat <&5 > "$2"
  exec 5<&- 5>&-
}
CLIENT_PIDS=""
i=0
for frac in 0.1 0.1 0.15 0.15; do
  i=$((i + 1))
  sched_client "$frac" "$SERVE_DIR/client$i.json" &
  CLIENT_PIDS="$CLIENT_PIDS $!"
done
for pid in $CLIENT_PIDS; do
  wait "$pid" || { echo "scheduler client $pid failed"; exit 1; }
done
for f in "$SERVE_DIR"/client*.json; do
  grep -q '"pair_count"' "$f" || { echo "bad query reply in $f:"; cat "$f"; exit 1; }
  if grep -q '"error"' "$f"; then echo "client errored in $f:"; cat "$f"; exit 1; fi
done

exec 4<>"/dev/tcp/127.0.0.1/$MPORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&4
SCHED_SCRAPE="$(cat <&4)"
exec 4<&- 4>&-

MINING_PASSES="$(echo "$SCHED_SCRAPE" | sed -n 's/^cfq_mining_passes_total \([0-9][0-9]*\)$/\1/p')"
COALESCED="$(echo "$SCHED_SCRAPE" | sed -n 's/^cfq_scheduler_coalesced_total \([0-9][0-9]*\)$/\1/p')"
HITS="$(echo "$SCHED_SCRAPE" | sed -n 's/^cfq_lattice_hits_total \([0-9][0-9]*\)$/\1/p')"
MISSES="$(echo "$SCHED_SCRAPE" | sed -n 's/^cfq_lattice_misses_total \([0-9][0-9]*\)$/\1/p')"
echo "  mining passes: ${MINING_PASSES:-?}, coalesced: ${COALESCED:-?}, lattice hits/misses: ${HITS:-?}/${MISSES:-?}"
echo "$SCHED_SCRAPE" | grep -q '^cfq_queries_total 4$' \
  || { echo "expected 4 queries answered"; echo "$SCHED_SCRAPE"; exit 1; }
echo "$SCHED_SCRAPE" | grep -q '^cfq_scheduler_overloaded_total 0$' \
  || { echo "the admission gate rejected a client it has room for"; echo "$SCHED_SCRAPE"; exit 1; }
# Which client mines, joins a group or hits a finished group's entry
# depends on how the host schedules them; the books do not. Each query
# looks up two sides, every miss mined or joined, and someone mined.
[ -n "$MINING_PASSES" ] && [ -n "$COALESCED" ] && [ -n "$HITS" ] && [ -n "$MISSES" ] \
  && [ $((HITS + MISSES)) -eq 8 ] && [ "$MISSES" -eq $((MINING_PASSES + COALESCED)) ] \
  && [ "$MINING_PASSES" -ge 1 ] \
  || { echo "scheduler books do not balance"; echo "$SCHED_SCRAPE"; exit 1; }

kill -INT "$SERVE_PID"
wait "$SERVE_PID" || { echo "scheduler serve exited non-zero on SIGINT"; cat "$SERVE_DIR/sched.log"; exit 1; }
SERVE_PID=""

echo "== counting backends: fig8a/fig8b answers agree across horizontal|tidset|bitmap|auto, at two scales"
# First the serve stages' data, then the paper's 100k x 1000 database at
# the §7 support (0.004): the projection, the vertical indexes and the
# per-level scans must agree where the lattice reaches every level. The
# pair/set counts printed before the first `|` are timing-free, so
# byte-equality means the four backends mined bit-identical lattices end
# to end.
./target/release/cfq gen --items 1000 --transactions 100000 --out "$SERVE_DIR/tx-paper.txt"
./target/release/cfq gen-catalog --items 1000 --num Price:uniform:0:1000 --cat Type:6 \
  --out "$SERVE_DIR/catalog-paper.txt"
FIG8B='max(S.Price) <= 400 & min(T.Price) >= 600 & S.Type = T.Type'
for DB in "tx.txt catalog.txt 0.1" "tx-paper.txt catalog-paper.txt 0.004"; do
  read -r TX CAT SUPPORT <<< "$DB"
  for Q in "$FIG8A" "$FIG8B"; do
    REF=""
    for B in horizontal tidset bitmap auto; do
      # Capture everything, then keep the first line's timing-free prefix:
      # a `| head -1` here would close the pipe under the CLI and trip its
      # broken-pipe print panic with pipefail on.
      FULL="$(./target/release/cfq query --data "$SERVE_DIR/$TX" --catalog "$SERVE_DIR/$CAT" \
        --min-support "$SUPPORT" --backend "$B" "$Q")"
      ANSWER="$(printf '%s\n' "$FULL" | sed -n '1s/|.*$//p')"
      if [ -z "$REF" ]; then REF="$ANSWER"; fi
      [ "$ANSWER" = "$REF" ] \
        || { echo "backend $B disagrees on \`$Q\` over $TX: got '$ANSWER', want '$REF'"; exit 1; }
    done
    echo "  $TX: \`$Q\` -> ${REF}(identical under all four backends)"
  done
done

echo "== counting backends: cfq_mining_backend_* metrics surface at scrape"
./target/release/cfq serve --data "$SERVE_DIR/tx.txt" --catalog "$SERVE_DIR/catalog.txt" \
  --listen 127.0.0.1:0 --metrics-addr 127.0.0.1:0 \
  > "$SERVE_DIR/backend.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^metrics on ' "$SERVE_DIR/backend.log" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SERVE_DIR/backend.log")"
MPORT="$(sed -n 's/^metrics on http:.*:\([0-9][0-9]*\)$/\1/p' "$SERVE_DIR/backend.log")"
if [ -z "$PORT" ] || [ -z "$MPORT" ]; then
  echo "backend serve did not come up:"; cat "$SERVE_DIR/backend.log"; exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
# First one request for each removed field — `shards`, `backend`, `trim`,
# `counting_threads` (checked in the next stage): the connection must
# outlive their errors and serve the plain query after them, which counts
# the engine's one way.
GONE_FIELDS='shards:2 backend:"bitmap" trim:false counting_threads:2'
for F in $GONE_FIELDS; do
  printf '{"v":1,"cmd":"query","req":{"query":"max(S.Price) <= min(T.Price)","support":{"frac":0.1},"%s":%s}}\n' \
    "${F%%:*}" "${F#*:}" >&3
done
printf '{"v":1,"cmd":"query","req":{"query":"max(S.Price) <= min(T.Price)","support":{"frac":0.1}}}\n:quit\n' >&3
GONE_REPLIES=()
for F in $GONE_FIELDS; do
  read -r LINE <&3
  GONE_REPLIES+=("${F%%:*} $LINE")
done
read -r BK_REPLY <&3
exec 3<&- 3>&-
exec 4<>"/dev/tcp/127.0.0.1/$MPORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&4
BK_SCRAPE="$(cat <&4)"
exec 4<&- 4>&-
echo "$BK_REPLY" | grep -q '"pair_count"' || { echo "envelope query failed: $BK_REPLY"; exit 1; }
for M in \
  'cfq_mining_backend_selected_total{backend="horizontal"}' \
  'cfq_mining_backend_level_micros_total{backend="horizontal"}'; do
  echo "$BK_SCRAPE" | grep -qF "$M" \
    || { echo "scrape missing $M"; echo "$BK_SCRAPE"; exit 1; }
done
kill -INT "$SERVE_PID"
wait "$SERVE_PID" || { echo "backend serve exited non-zero on SIGINT"; cat "$SERVE_DIR/backend.log"; exit 1; }
SERVE_PID=""

echo "== removed names are rejected, not swallowed: --shards, --backbone, --batch-window-ms, --follow, serve --backend|--trim|--threads, \"shards\"|\"backend\"|\"trim\"|\"counting_threads\", loadgen, repro substrate|engine"
# `--shards N`, `mine --backbone NAME`, `serve --batch-window-ms MS`,
# `serve --follow DIR`, `serve --backend|--trim|--threads` and the
# `shards`, `backend`, `trim` and `counting_threads` request fields are
# gone. Each must fail naming itself — a lenient parser would take the
# next token as the option's value and run.
for GONE in "query shards 2" "mine backbone fpgrowth" "serve batch-window-ms 2" "serve follow /tmp" \
  "serve backend bitmap" "serve trim off" "serve threads 2"; do
  read -r CMD OPT VAL <<< "$GONE"
  if ERR="$(./target/release/cfq "$CMD" "--$OPT" "$VAL" --data "$SERVE_DIR/tx.txt" "$FIG8A" 2>&1 > /dev/null)"; then
    echo "cfq $CMD --$OPT $VAL ran instead of failing"; exit 1
  fi
  echo "$ERR" | grep -qF "unknown option --$OPT" \
    || { echo "cfq $CMD --$OPT $VAL failed without naming the option: $ERR"; exit 1; }
done
for GONE_REPLY in "${GONE_REPLIES[@]}"; do
  read -r FIELD LINE <<< "$GONE_REPLY"
  echo "$LINE" | grep -qF '"kind":"parse"' && echo "$LINE" | grep -qF "unknown request field \`$FIELD\`" \
    || { echo "a request with \"$FIELD\" did not get the typed unknown-field error: $LINE"; exit 1; }
done
# `cfq loadgen` and `repro substrate|engine` are gone too (benchmark/ is
# the one timing instrument): each exits 2 naming what it does not know.
if ERR="$(./target/release/cfq loadgen --addr 127.0.0.1:1 2>&1 > /dev/null)"; then
  echo "cfq loadgen ran instead of failing"; exit 1
else
  [ $? -eq 2 ] && echo "$ERR" | grep -qF 'unknown command `loadgen`' \
    || { echo "cfq loadgen failed without naming the command: $ERR"; exit 1; }
fi
for T in substrate engine; do
  if ERR="$(./target/release/repro "$T" 2>&1 > /dev/null)"; then
    echo "repro $T ran instead of failing"; exit 1
  else
    [ $? -eq 2 ] && echo "$ERR" | grep -qF "unknown target \`$T\`" \
      || { echo "repro $T failed without naming the target: $ERR"; exit 1; }
  fi
done
echo "  --shards, --backbone, --batch-window-ms, --follow, serve --backend|--trim|--threads, the \"shards\", \"backend\", \"trim\" and \"counting_threads\" fields, loadgen and repro substrate|engine are each refused by name"

echo "== durability: WAL + snapshot survive kill -9, restart serves warm"
WAL_DIR="$SERVE_DIR/wal"
# A bigger database than the serve stage, and a selective query: cold
# mining scans 20k rows level-by-level while the answer is only a few
# hundred pairs, so the warm-restart collapse is mining time, not noise.
./target/release/cfq gen --items 60 --transactions 20000 --avg-trans-len 8 --patterns 40 \
  --out "$SERVE_DIR/tx-durable.txt"
./target/release/cfq gen --items 60 --transactions 20 --avg-trans-len 8 --patterns 40 \
  --out "$SERVE_DIR/delta.txt"
DUR_Q='count(S) >= 4 & count(T) >= 4 & max(S.Price) <= min(T.Price)'
./target/release/cfq serve --data "$SERVE_DIR/tx-durable.txt" --catalog "$SERVE_DIR/catalog.txt" \
  --wal-dir "$WAL_DIR" --snapshot-every 0 --listen 127.0.0.1:0 \
  > "$SERVE_DIR/durable.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^listening on ' "$SERVE_DIR/durable.log" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SERVE_DIR/durable.log")"
[ -n "$PORT" ] || { echo "durable serve did not come up:"; cat "$SERVE_DIR/durable.log"; exit 1; }
grep -q '^engine up (durable)' "$SERVE_DIR/durable.log" \
  || { echo "durable serve not in durable mode"; cat "$SERVE_DIR/durable.log"; exit 1; }

# Cold query, an append, a manual snapshot, then a second append that
# lives only on the WAL — the state a crash must not lose.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf ':support 0.05\n' >&3
read -r _ <&3
t0=$(date +%s%N)
printf '%s\n' "$DUR_Q" >&3
read -r DUR_COLD <&3
t1=$(date +%s%N)
RESTART_COLD_MS=$(( (t1 - t0) / 1000000 ))
echo "$DUR_COLD" | grep -q 'valid pairs' || { echo "durable cold query failed: $DUR_COLD"; exit 1; }
printf ':append %s\n' "$SERVE_DIR/delta.txt" >&3
read -r APPEND1 <&3
echo "$APPEND1" | grep -q 'now epoch 1' || { echo "first append failed: $APPEND1"; exit 1; }
printf ':snapshot\n' >&3
read -r SNAP_REPLY <&3
echo "$SNAP_REPLY" | grep -q 'snapshot written: epoch 1' \
  || { echo "manual snapshot failed: $SNAP_REPLY"; exit 1; }
printf ':append %s\n' "$SERVE_DIR/delta.txt" >&3
read -r APPEND2 <&3
echo "$APPEND2" | grep -q 'now epoch 2' || { echo "acked append failed: $APPEND2"; exit 1; }
exec 3<&- 3>&-

# The ack above means "fsynced": kill -9 and reboot from the directory.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
./target/release/cfq serve --data "$SERVE_DIR/tx-durable.txt" --catalog "$SERVE_DIR/catalog.txt" \
  --wal-dir "$WAL_DIR" --snapshot-every 0 --listen 127.0.0.1:0 \
  > "$SERVE_DIR/restart.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^listening on ' "$SERVE_DIR/restart.log" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SERVE_DIR/restart.log")"
[ -n "$PORT" ] || { echo "restarted serve did not come up:"; cat "$SERVE_DIR/restart.log"; exit 1; }
grep -q 'epoch 2' "$SERVE_DIR/restart.log" \
  || { echo "restart lost the acked append (want epoch 2):"; cat "$SERVE_DIR/restart.log"; exit 1; }
grep -q 'recovered from snapshot epoch 1 + 1 WAL records' "$SERVE_DIR/restart.log" \
  || { echo "restart did not recover snapshot+WAL:"; cat "$SERVE_DIR/restart.log"; exit 1; }

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf ':support 0.05\n' >&3
read -r _ <&3
t2=$(date +%s%N)
printf '%s\n' "$DUR_Q" >&3
read -r DUR_WARM <&3
t3=$(date +%s%N)
RESTART_WARM_MS=$(( (t3 - t2) / 1000000 ))
echo "$DUR_WARM" | grep -q 'epoch 2' || { echo "restart answered at the wrong epoch: $DUR_WARM"; exit 1; }
echo "$DUR_WARM" | grep -q '| 0 db scans | \[S\] cache hit .* \[T\] cache hit ' \
  || { echo "restart did not serve from the recovered cache: $DUR_WARM"; exit 1; }
printf ':wal-status\n:quit\n' >&3
WAL_STATUS="$(cat <&3)"
exec 3<&- 3>&-
echo "$WAL_STATUS" | grep -q '1 replayed' \
  || { echo "wal-status missing replay count: $WAL_STATUS"; exit 1; }
echo "  restart cold: ${RESTART_COLD_MS}ms, warm: ${RESTART_WARM_MS}ms ($WAL_STATUS)"
[ "$RESTART_WARM_MS" -le "$RESTART_COLD_MS" ] \
  || { echo "warm restart query (${RESTART_WARM_MS}ms) not faster than cold (${RESTART_COLD_MS}ms)"; exit 1; }

# The restarted primary answers the envelope and keeps taking appends.
ENVELOPE_Q='{"v":1,"cmd":"query","req":{"query":"count(S) >= 4 & count(T) >= 4 & max(S.Price) <= min(T.Price)","support":{"frac":0.05}}}'
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf '%s\n:append %s\n:quit\n' "$ENVELOPE_Q" "$SERVE_DIR/delta.txt" >&3
read -r ENVELOPE_REPLY <&3
read -r APPEND3 <&3
exec 3<&- 3>&-
echo "$ENVELOPE_REPLY" | grep -q '"pair_count"' \
  || { echo "restarted primary's envelope query failed: $ENVELOPE_REPLY"; exit 1; }
echo "$APPEND3" | grep -q 'now epoch 3' || { echo "third append failed: $APPEND3"; exit 1; }
kill -INT "$SERVE_PID"
wait "$SERVE_PID" || { echo "durable serve exited non-zero on SIGINT"; cat "$SERVE_DIR/restart.log"; exit 1; }
SERVE_PID=""

echo "== cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== the run left the working tree as it found it"
[ "$(git status --porcelain)" = "$TREE_BEFORE" ] \
  || { echo "ci.sh changed the working tree:"; git status --porcelain; exit 1; }
rm -rf "$OUT"

echo "ci: OK"
