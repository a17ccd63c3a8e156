#!/usr/bin/env bash
# Ledger golden: what `cfq query --explain` says each run did, case by case.
#
#   scripts/ledger_golden.sh CFQ_BINARY GOLDEN_DIR [--record] [extra cfq flags]
#   scripts/ledger_golden.sh CFQ_BINARY GOLDEN_DIR --confined REV
#
# Runs every line of GOLDEN_DIR/cases.txt (dataset, support, strategy, query)
# through `CFQ_BINARY query --explain --threads 1 --limit 0` and compares the
# execution ledger — both summary lines and the whole execution report:
# scans, scan volume, trim drops, per-level candidates and frequent sets,
# sets counted, candidates pruned, constraint checks, V^k histories, pair
# checks — with GOLDEN_DIR/ledger.out. Wall time, the `micros:` rows, the
# `backends:` / `counted by:` rows (which name kernels, not work) and the
# pair listing's `… N more` line (the count is in the summary) are left
# out. `--record` writes the file instead; it is recorded with the binary of
# the commit *before* a change to the mining substrate. Extra flags (e.g.
# `--threads 2`, `--backend auto`: configurations whose accounting is
# defined to equal the default's) check them against the same file.
#
# `--confined REV` runs nothing: it checks what a re-recording was allowed
# to move. GOLDEN_DIR/ledger.out and the recording it replaced (the file as
# of git revision REV) must be byte-identical once the scan count (`N db
# scans`, `database scans: N`) and the scan volume (`scan volume: … ;`) are
# masked — answers, sets counted, per-level candidates and frequent sets,
# checks, pruned, V^k histories and trim drops may not differ. (The third
# thing such a change renames, a level's `counted by:` label, is on a row
# this golden leaves out.)
#
# `matrix` is the database of tests/optimizer_matrix.rs; `shapes` is
# `cfq gen --transactions 4000 --patterns 300` with the
# catalog `cfq gen-catalog --items 1000 --num Price:uniform:0:1000
# --cat Type:10` wrote (committed, since its generator lives in the CLI).
# tests/ledger_golden.rs replays the same cases in-process.
set -euo pipefail

CFQ="$1"
GOLDEN="$2"
shift 2
RECORD=""
if [ "${1:-}" = --record ]; then RECORD=1; shift; fi

if [ "${1:-}" = --confined ]; then
  REV="${2:?--confined needs the git revision of the recording that was replaced}"
  mask() {
    sed -e 's/ | [0-9]* db scans$/ | # db scans/' \
        -e 's/^database scans: [0-9]*$/database scans: #/' \
        -e 's/^scan volume: [^;]*;/scan volume: #;/'
  }
  if ! MOVED="$(diff <(git show "$REV:$GOLDEN/ledger.out" | mask) <(mask < "$GOLDEN/ledger.out"))"; then
    echo "ledger golden: $GOLDEN/ledger.out differs from its $REV recording outside scan count and scan volume"
    echo "$MOVED" | head -40
    exit 1
  fi
  echo "  ledger.out differs from its $REV recording in scan count and scan volume only"
  exit 0
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
"$CFQ" gen --transactions 4000 --patterns 300 --out "$WORK/shapes.tx" > /dev/null

while IFS=$'\t' read -r dataset support strategy query; do
  case "$dataset" in
    matrix) data="$GOLDEN/matrix.tx" ;;
    shapes) data="$WORK/shapes.tx" ;;
    *) echo "ledger golden: unknown dataset \`$dataset\`"; exit 1 ;;
  esac
  echo "## $dataset $support $strategy $query"
  # shellcheck disable=SC2086  # $support is a flag and its value
  "$CFQ" query --data "$data" --catalog "$GOLDEN/$dataset.catalog" $support \
      --strategy "$strategy" --explain --threads 1 --limit 0 "$@" "$query" \
    | sed -n '/ valid pairs (.*| min_support=/,$p' \
    | sed -e 's/ | [0-9.]*s | / | /' -e '/^  micros: /d' -e '/^  counted by: /d' -e '/^backends: /d' \
          -e '/^  … [0-9]* more (raise --limit)$/d'
done < "$GOLDEN/cases.txt" > "$WORK/ledger.out"

if [ -n "$RECORD" ]; then
  cp "$WORK/ledger.out" "$GOLDEN/ledger.out"
elif ! cmp -s "$WORK/ledger.out" "$GOLDEN/ledger.out"; then
  echo "ledger golden: the execution ledger differs from $GOLDEN/ledger.out"
  diff "$GOLDEN/ledger.out" "$WORK/ledger.out" | head -40
  exit 1
fi
