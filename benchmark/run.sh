#!/usr/bin/env bash
# Builds `cfq` and the benchmark from source, then runs the benchmark.
# See benchmark/README.md; `benchmark/run.sh --help` lists the modes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"

# The driver points CARGO_TARGET_DIR at a directory inside its checkout;
# by hand the build lands under target/benchmark. Cargo resolves a
# relative target directory against its own working directory, so make it
# absolute once, here.
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Modes that need no server need no build of `cfq` either.
needs_server=1
case "${1:-}" in compare|--emit|--describe|--help|-h) needs_server=0 ;; esac

if [ "$needs_server" = 1 ]; then
    # --locked: never rewrite the workspace's Cargo.lock from here.
    cargo build --quiet --release --offline --locked \
        --manifest-path "$root/Cargo.toml" -p cfq-cli >&2
fi
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2

if [ "$needs_server" = 1 ]; then
    exec "$target/release/cfq-benchmark" \
        --cfq "$target/release/cfq" --work "$target/cfq-bench" "$@"
fi
exec "$target/release/cfq-benchmark" "$@"
