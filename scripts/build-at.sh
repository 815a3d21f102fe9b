#!/usr/bin/env bash
# Builds dss-perf (the benchmark driver) for any revision of this repository
# from one fixed source path and one fixed CARGO_TARGET_DIR, then copies the
# binary to <out>.
#
#   scripts/build-at.sh <rev> <out>
#
# Cargo hashes a path dependency's location into symbol names, and that moves
# codegen-unit splits and inlining: one source built in two checkouts can read
# several percent apart. Build both sides of scripts/pairs.sh here, so the
# two binaries differ only by their source. Two builds of one revision are
# cmp-equal.
set -euo pipefail

if (($# != 2)); then
    sed -n '2,12p' "$0" >&2
    exit 2
fi
rev=$1 out=$2
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
commit=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
root=${TMPDIR:-/tmp}/dss-build-at
src=$root/src

rm -rf "$src"
mkdir -p "$src"
# --touch stamps every file with the current time: cargo decides by mtime
# what to rebuild, so a revision older than the last build is rebuilt too.
git -C "$repo" archive "$commit" | tar -x --touch -C "$src"
CARGO_TARGET_DIR=$root/target cargo build --release --offline --locked \
    --manifest-path "$src/benchmark/Cargo.toml" >&2
mkdir -p "$(dirname "$out")"
cp "$root/target/release/dss-perf" "$out"
echo "build-at.sh: $commit -> $out" >&2
