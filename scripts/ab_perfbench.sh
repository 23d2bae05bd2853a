#!/usr/bin/env bash
# A/B speed comparison of the working tree against a parent revision on the
# repository benchmark (`perfbench/`).
#
# Usage: scripts/ab_perfbench.sh <parent-rev> [pairs] [seconds] [cells]
#   pairs    parent/change run pairs per cell (default 10)
#   seconds  `--seconds` of every perfbench run (default 30, the benchmark's
#            run length)
#   cells    comma-separated perfbench workloads
#            (default apache-sc,apache-invisi,barnes-cov)
# Environment:
#   AB_SEED     trace seed of every run (default 1)
#   AB_WORKDIR  directory outside the tree for both source copies and target
#               directories; reusing one keeps the builds incremental
#               (default: a fresh temporary directory, removed on exit)
#
# The parent is built from `git archive <parent-rev>`, the change from a copy
# of the working tree (tracked and untracked, non-ignored files), each into
# its own target directory, so the tree itself is never written —
# `perfbench/Cargo.lock` included. Pair i runs the parent first when i is
# odd and the change first when i is even. For each cell the script prints
# every pair's `sim_mips`, then, for `sim_mips`, `setup_s` and
# `peak_rss_mb`, each side's median and quartiles and how many pairs the
# change won: a claimed gain needs wins in nearly every pair and a gap
# between medians wider than the parent's interquartile range. It fails if
# the two sides' result digests or cycle counts differ: a speed-only change
# must leave every simulated result alone.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 4 ]; then
    sed -n '5,15p' "$0" >&2
    exit 2
fi
rev="$1"
pairs="${2:-10}"
seconds="${3:-30}"
cells="${4:-apache-sc,apache-invisi,barnes-cov}"
seed="${AB_SEED:-1}"

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null \
    || { echo "ab_perfbench: unknown revision $rev" >&2; exit 2; }

if [ -n "${AB_WORKDIR:-}" ]; then
    work="$(realpath -m "$AB_WORKDIR")"
    case "$work/" in
        "$root"/*) echo "ab_perfbench: AB_WORKDIR must lie outside the tree" >&2; exit 2 ;;
    esac
    mkdir -p "$work"
else
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi

# Copies one side's sources into $work/<side>-src and builds perfbench there.
build() {
    local side="$1" src="$work/$1-src"
    rm -rf "$src"
    mkdir -p "$src"
    if [ "$side" = parent ]; then
        git -C "$root" archive "$rev" | tar -x -C "$src"
    else
        (cd "$root" && git ls-files -z --cached --others --exclude-standard \
            | tar --null --ignore-failed-read -T - -cf -) | tar -x -C "$src"
    fi
    echo "building $side ..." >&2
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --quiet --offline \
        --manifest-path "$src/perfbench/Cargo.toml"
}
build parent
build change

results="$work/results"
rm -rf "$results"
mkdir -p "$results"

metrics="sim_mips setup_s peak_rss_mb"

# Runs one side on one cell, appending each metric's value to
# $results/<cell>.<side>.<metric> and the result line to
# $results/<cell>.<side>.result.
run() {
    local side="$1" cell="$2" out last m value
    out="$("$work/$side-target/release/perfbench" --workload "$cell" --seed "$seed" \
        --seconds "$seconds" --trace 0)"
    last="$(tail -n 1 <<<"$out")"
    grep -q '"failed":0,' <<<"$last" || { echo "ab_perfbench: $side $cell: failed runs" >&2; exit 1; }
    for m in $metrics; do
        value="$(sed -n "s/.*\"$m\":{\"value\":\([0-9.eE+-]*\).*/\1/p" <<<"$last")"
        [ -n "$value" ] || { echo "ab_perfbench: $side $cell: no $m in: $last" >&2; exit 1; }
        echo "$value" >>"$results/$cell.$side.$m"
    done
    grep '^result digest=' <<<"$out" >>"$results/$cell.$side.result"
}

# Prints "median q1 q3" of the numbers in a file (linear interpolation
# between order statistics).
quartiles() {
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function q(p,   h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1 < NR ? l + 1 : NR] - v[l]) }
        END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

status=0
for cell in ${cells//,/ }; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$cell"
            run change "$cell"
        else
            run change "$cell"
            run parent "$cell"
        fi
        echo "$cell pair $i sim_mips: parent $(tail -n 1 "$results/$cell.parent.sim_mips")" \
            "change $(tail -n 1 "$results/$cell.change.sim_mips")"
    done
    if ! cmp -s <(sort -u "$results/$cell.parent.result") <(sort -u "$results/$cell.change.result"); then
        echo "$cell: simulated results differ: parent $(sort -u "$results/$cell.parent.result" | tr '\n' ' ')change $(sort -u "$results/$cell.change.result" | tr '\n' ' ')"
        status=1
    fi
    for m in $metrics; do
        # sim_mips is better higher; set-up time and memory lower.
        sign=1
        [ "$m" = sim_mips ] || sign=-1
        read -r pm pq1 pq3 < <(quartiles "$results/$cell.parent.$m")
        read -r cm cq1 cq3 < <(quartiles "$results/$cell.change.$m")
        wins="$(paste "$results/$cell.parent.$m" "$results/$cell.change.$m" \
            | awk -v s="$sign" '($2 - $1) * s > 0 { w++ } END { print w + 0 }')"
        awk -v c="$cell" -v m="$m" -v pm="$pm" -v pq1="$pq1" -v pq3="$pq3" -v cm="$cm" \
            -v cq1="$cq1" -v cq3="$cq3" -v w="$wins" -v n="$pairs" 'BEGIN {
            printf "%s %s: parent median %.6g [q1 %.6g, q3 %.6g]  change median %.6g [q1 %.6g, q3 %.6g]  %+.1f%%  change better in %d of %d pairs; median gap %.6g, parent IQR %.6g\n",
                c, m, pm, pq1, pq3, cm, cq1, cq3, (pm ? (cm / pm - 1) * 100 : 0), w, n, cm - pm, pq3 - pq1 }'
    done
done
exit "$status"
