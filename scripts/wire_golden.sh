#!/usr/bin/env bash
# Wire goldens: the six benchmark query families and a second palette for
# the pair-formation branches they never reach, byte for byte.
#
#   scripts/wire_golden.sh CFQ_BINARY GOLDEN_DIR [--record]
#   scripts/wire_golden.sh CFQ_BINARY GOLDEN_DIR --confined REV
#
# Boots `CFQ_BINARY serve` on a generated 1,000-item database, sends the
# six families of benchmark/README.md (a-f at the paper's constants) and
# the second palette (g-o: a-f only ever pair under `<=` and `Type =`, so
# these pair under `>=`, `<`, `=` and `!=` over min/max/sum/count, under
# `disjoint` and `subset` over an attribute and over the bare variable,
# under a numeric and a domain constraint together, and under a cap that
# cuts a row in two; price bands keep each side under a hundred sets and a
# support of 0.3 % puts two- and three-item sets among them) as v1
# envelopes, each over every item and over one fixed 250-item window, and
# compares the timing-free answer prefix of every reply — everything before
# `,"db_scans":`: epoch, pair count, pairs, both set lists — with the file
# of the same name under GOLDEN_DIR. Every request is then sent three more
# times with `"bypass_cache":true` under `"strategy"` full, cap1 and
# apriori+ — the one-shot optimizer in place of the lattice cache — and
# each of those replies must equal the same file. `--record` writes the
# files instead, from the cached reply only; they are recorded with the
# binary of the commit *before* a change to the wire or the answer path, so
# that the check is against what clients already parse, not against the
# change's own output.
#
# `--confined REV` boots nothing: it checks what a re-recording was allowed
# to move. The one field of a reply that a change to scan accounting may
# move, `db_scans`, sits past the recorded prefix, so every file under
# GOLDEN_DIR must equal the recording it replaced (the file as of git
# revision REV) byte for byte. A golden REV does not have is new and
# replaced nothing: it is skipped, and the count compared is printed.
set -euo pipefail

CFQ="$1"
GOLDEN="$2"
RECORD="${3:-}"

if [ "$RECORD" = --confined ]; then
  REV="${4:?--confined needs the git revision of the recordings that were replaced}"
  COMPARED=0
  NEW=0
  for FILE in "$GOLDEN"/*.prefix; do
    if ! git cat-file -e "$REV:$FILE" 2>/dev/null; then
      NEW=$((NEW + 1))
      continue
    fi
    git show "$REV:$FILE" | cmp -s - "$FILE" \
      || { echo "wire golden: $FILE differs from its $REV recording"; exit 1; }
    COMPARED=$((COMPARED + 1))
  done
  echo "  $COMPARED goldens byte-identical to their $REV recordings ($NEW new since $REV, nothing to compare)"
  exit 0
fi

WORK="$(mktemp -d)"
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$CFQ" gen --items 1000 --transactions 2000 --out "$WORK/tx.txt" > /dev/null
"$CFQ" gen-catalog --items 1000 --num Price:uniform:0:1000 --cat Type:10 \
  --out "$WORK/catalog.txt" > /dev/null
"$CFQ" serve --data "$WORK/tx.txt" --catalog "$WORK/catalog.txt" --listen 127.0.0.1:0 \
  > "$WORK/serve.log" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
  grep -q '^listening on ' "$WORK/serve.log" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$WORK/serve.log")"
[ -n "$PORT" ] || { echo "golden serve did not come up:"; cat "$WORK/serve.log"; exit 1; }

WINDOW="$(seq -s, 300 549)"
BAND='max(S.Price) <= 70 & min(T.Price) >= 40 & max(T.Price) <= 110'
family() {
  case "$1" in
    a) echo 'max(S.Price) <= 400 & min(T.Price) >= 600 & S.Type = T.Type' ;;
    b) echo 'min(S.Price) >= 400 & max(T.Price) <= 500 & max(S.Price) <= min(T.Price)' ;;
    c) echo 'max(S.Price) <= 300 & sum(S.Price) <= sum(T.Price) & min(T.Price) >= 700' ;;
    d) echo 'avg(S.Price) <= avg(T.Price) & max(S.Price) <= 200 & min(T.Price) >= 800' ;;
    e) echo 'S.Type = T.Type & max(S.Price) <= 250 & count(T) <= 2 & min(T.Price) >= 750' ;;
    f) echo 'max(S.Price) <= 300 & min(T.Price) >= 700' ;;
    g) echo "$BAND & min(S.Price) >= max(T.Price)" ;;
    h) echo "$BAND & sum(S.Price) < sum(T.Price)" ;;
    i) echo "$BAND & count(S) = count(T)" ;;
    j) echo "$BAND & max(S.Price) != min(T.Price)" ;;
    k) echo "$BAND & S.Type disjoint T.Type" ;;
    l) echo "$BAND & S.Type subset T.Type" ;;
    m) echo "$BAND & S disjoint T" ;;
    n) echo "$BAND & sum(S.Price) <= sum(T.Price) & S.Type intersects T.Type" ;;
    o) echo "$BAND & S.Type disjoint T.Type" ;;
  esac
}

mkdir -p "$GOLDEN"
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
FAILED=0
TOTAL=0
for shape in a b c d e f g h i j k l m n o; do
  for universe in full window; do
    EXTRA=""
    [ "$universe" = window ] && EXTRA=",\"s_universe\":[$WINDOW],\"t_universe\":[$WINDOW]"
    SUPPORT=0.012
    case "$shape" in
      f) EXTRA="$EXTRA,\"max_pairs\":1000" ;;
      g|h|i|j|k|l|m|n) SUPPORT=0.003 ;;
      o) SUPPORT=0.003; EXTRA="$EXTRA,\"max_pairs\":100" ;;
    esac
    TOTAL=$((TOTAL + 1))
    FILE="$GOLDEN/$shape.$universe.prefix"
    # The cached reply first (the one `--record` writes), then the one-shot
    # optimizer under each strategy family: the answer is path- and
    # strategy-invariant by final verification, so all four equal one file.
    for leg in "" ',"bypass_cache":true,"strategy":"full"' \
      ',"bypass_cache":true,"strategy":"cap1"' ',"bypass_cache":true,"strategy":"apriori+"'; do
      [ -n "$leg" ] && [ "$RECORD" = --record ] && continue
      printf '{"v":1,"cmd":"query","req":{"query":"%s","support":{"frac":%s}%s%s}}\n' \
        "$(family "$shape")" "$SUPPORT" "$EXTRA" "$leg" >&3
      read -r REPLY <&3
      case "$REPLY" in
        '{"v":1,"result":{"epoch":'*',"db_scans":'*) ;;
        *) echo "wire golden $shape.$universe$leg: not a query result: ${REPLY:0:200}"; exit 1 ;;
      esac
      if [ "$RECORD" = --record ]; then
        printf '%s\n' "${REPLY%%,\"db_scans\":*}" > "$FILE"
      elif [ "${REPLY%%,\"db_scans\":*}" != "$(cat "$FILE")" ]; then
        echo "wire golden $shape.$universe$leg: reply differs from $FILE"
        printf '%s\n' "${REPLY%%,\"db_scans\":*}" | cmp - "$FILE" || true
        FAILED=1
      fi
    done
  done
done
printf ':quit\n' >&3
exec 3<&- 3>&-
kill -INT "$PID"
wait "$PID" || { echo "golden serve exited non-zero on SIGINT"; cat "$WORK/serve.log"; exit 1; }
PID=""
[ "$FAILED" = 0 ] || exit 1
[ "$RECORD" = --record ] && echo "  recorded $TOTAL goldens under $GOLDEN" \
  || echo "  $TOTAL replies byte-identical to $GOLDEN, cached and bypass_cache under full, cap1, apriori+"
