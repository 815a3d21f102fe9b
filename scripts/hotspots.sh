#!/usr/bin/env bash
# Where a program spends its wall time, on a host without perf or gdb: runs
# it under scripts/hotspots/sampler.c (LD_PRELOAD, one PC sample every
# 100 us), then symbolizes the samples with addr2line and prints the ten
# largest shares twice: by outermost non-inlined frame (the function a
# sample's code was compiled into) and by innermost file:line (the source it
# came from).
#
#   scripts/hotspots.sh <binary> [args...]
#
# The binary needs debug info: the root release profile has `debug = true`,
# so e.g. `scripts/hotspots.sh target/release/repro fig8 fig10 fig13 --jobs 1`.
# Profile one busy thread (`--jobs 1`): the timer signal goes to whichever
# thread the kernel picks. The program's stdout is discarded.
#
# To profile one benchmark rep in-process, build `dss-perf` with debug info
# into a target directory of its own, so the optimized build stays as it is:
#   CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR=/some/dir cargo build \
#       --release --offline --locked --manifest-path benchmark/Cargo.toml
#   scripts/hotspots.sh /some/dir/release/dss-perf rep --workload W --seed N \
#       --mode timed --out D --tmp D
# Ignore the `pace.rs` frames: they are the pacer's calibration slices, not
# the workload. This is how the load's per-value `Value::Str` clones showed
# up (`datum.rs:132`, 17.7 % of the samples) before the load became one
# row-major pass.
set -euo pipefail

if (($# < 1)); then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
bin=$(command -v "$1")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

gcc -O2 -shared -fPIC -o "$tmp/sampler.so" "$(dirname "$0")/hotspots/sampler.c"
status=0
HOTSPOTS_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" "$@" >/dev/null || status=$?
((status == 0)) || echo "hotspots: $1 exited $status" >&2

total=$(sed -n '1s/^# \([0-9]*\) samples$/\1/p' "$tmp/samples")
# One addr2line call over the distinct offsets; it answers in input order.
sed 1d "$tmp/samples" | sort | uniq -c >"$tmp/counts"
awk '{ print $2 }' "$tmp/counts" | addr2line -a -i -f -C -e "$bin" >"$tmp/symbols"

# An addr2line record is the address line, then function and file:line
# pairs from the innermost inlined frame out to the real function.
awk -v outer="$tmp/outer" -v inner="$tmp/inner" '
    FNR == NR { count[FNR] = $1; next }
    function close_record() {
        if (i) { by_outer[fn] += count[i]; by_inner[loc] += count[i] }
    }
    /^0x[0-9a-f]+$/ { close_record(); i++; pair = 0; next }
    {
        if (pair % 2 == 0) {
            fn = $0
        } else if (pair == 1) {
            loc = $0
            sub(/ \(discriminator [0-9]+\)$/, "", loc)
            sub(/^.*\/(crates|library)\//, "", loc)
        }
        pair++
    }
    END {
        close_record()
        for (f in by_outer) print by_outer[f] "\t" f >outer
        for (l in by_inner) print by_inner[l] "\t" l >inner
    }' "$tmp/counts" "$tmp/symbols"

table() {
    echo "$1"
    sort -t$'\t' -k1,1nr "$2" | head -n 10 |
        awk -F'\t' -v total="$total" '{ printf "  %5.1f %%  %s\n", 100 * $1 / total, $2 }'
}
in_bin=$(awk '{ n += $1 } END { print n + 0 }' "$tmp/counts")
echo "$total samples at 100 us, $in_bin in $bin; shares are of all samples"
table "by outermost non-inlined frame:" "$tmp/outer"
table "by innermost file:line:" "$tmp/inner"
