#!/usr/bin/env bash
# Alternated parent/change runs of one benchmark workload, the way a gain is
# claimed (choosing-metrics §8): N pairs of driver runs, which side goes first
# alternating pair by pair, each side's runs, median and quartiles per
# end-to-end metric, and how many pairs the change won (ties count for
# neither; every end-to-end metric is lower-is-better).
#
#   scripts/pairs.sh <parent dss-perf> <change dss-perf> <workload> [pairs=10] [seed=42]
#
# Build both binaries with scripts/build-at.sh, e.g.
#   scripts/build-at.sh HEAD~1 /some/dir/parent
#   scripts/build-at.sh HEAD /some/dir/change
# which builds every revision from one source path and one target directory,
# so the two differ only by their source.
# A run that is not `correct` or has `failed` > 0 stops the script.
set -euo pipefail

if (($# < 3)); then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10} seed=${5:-42}
metrics="wall_s user_cpu_s peak_rss_mb setup_s"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run <side> <binary>: one driver run; appends each metric of its result line
# (the last line of stdout) to $tmp/<side>.<metric>.
run() {
    local side=$1 binary=$2 line m value
    line=$("$binary" --workload "$workload" --seed "$seed" --seconds 20 --trace 0 \
        --out "$tmp/out" 2>/dev/null | tail -n 1)
    if [[ $line != *'"correct": true'* || $line != *'"failed": 0,'* ]]; then
        echo "pairs.sh: $side run failed: $line" >&2
        exit 1
    fi
    for m in $metrics; do
        value=$(sed -n "s/.*\"$m\": {[^}]*\"value\": \([0-9.eE+-]*\)}.*/\1/p" <<<"$line")
        [[ -n $value ]] || { echo "pairs.sh: no $m in: $line" >&2; exit 1; }
        echo "$value" >>"$tmp/$side.$m"
    done
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$parent"
        run change "$change"
    else
        run change "$change"
        run parent "$parent"
    fi
    echo "pairs.sh: pair $i/$pairs done" >&2
done

echo "$workload, seed $seed, $pairs alternated pair(s) of --seconds 20 --trace 0"
for m in $metrics; do
    paste "$tmp/parent.$m" "$tmp/change.$m" | awk -v metric="$m" '
        # Linear interpolation between order statistics of v[1..n], sorted.
        function quantile(v, n, p,    h, lo) {
            h = (n - 1) * p + 1; lo = int(h)
            return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        function sort(v, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        function side(name, runs, v, n) {
            printf "  %-6s runs  %s\n", name, runs
            printf "  %-6s median %.4g  quartiles [%.4g, %.4g]\n", name,
                quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75)
        }
        {
            n++; p[n] = $1; c[n] = $2
            pruns = pruns sprintf(" %.4g", $1); cruns = cruns sprintf(" %.4g", $2)
            if ($2 < $1) wins++; else if ($2 > $1) losses++
        }
        END {
            sort(p, n); sort(c, n)
            print metric
            side("parent", pruns, p, n); side("change", cruns, c, n)
            pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
            printf "  change vs parent median %+.1f %%, parent IQR %.4g, change wins %d/%d (loses %d)\n",
                (cm - pm) / pm * 100, quantile(p, n, 0.75) - quantile(p, n, 0.25), wins, n, losses
        }'
done
