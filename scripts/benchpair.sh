#!/usr/bin/env bash
# benchpair.sh <parent-ref> <workload> [pairs=10] [first-seed=1] — the paired comparison
# bench/README.md asks of any change that claims (or must rule out) a
# performance difference, scripted.
#
# The parent commit's committed files are exported into a fresh directory
# (git archive — the same thing the benchmark driver measures, and nothing
# is added to .git), and the repository benchmark is run alternately on
# that export and on this working tree:
#
#     bash bench/run.sh --workload W --seed N --seconds 28 --trace 0
#
# once per side per pair, a fresh seed for every pair (first-seed, and
# on: 1, 2, … by default; seed 1 is also checked against bench/golden,
# and the traced pass below always runs it), and the side that goes first
# alternating from pair to pair so that slow drift of the host falls on
# both. Each side builds its own harness from its own source, as in the
# driver.
#
# Per end-to-end metric of BENCHMARK.json it prints each side's median and
# quartiles over the pairs, the change of the median, how many pairs each
# side won (ties count for neither), and the two conditions the
# choosing-metrics guide sets for a claim: the change wins at least nine
# tenths of the pairs, and the medians differ by more than the parent's own
# interquartile range.
#
# After the pairs it makes four traced pairs (--trace 1, seed 1 on both
# sides), the side that goes first alternating as above so that each
# side goes first twice, and prints the median of each side's four, with
# its min–max, for the phases of a run — parse, build, warm-up, steady
# state, finish, the analysis and trace-store rows, peak RSS — so that
# work a change moved from one phase into another (out of set-up into
# Finish, say) is in the same report as the claim. A row whose two
# sides' [min, max] ranges overlap is marked "within spread": on a small
# host, phases a change did not touch move by up to 14 % between traced
# runs. Ranges that do not overlap are not marked, however wide one of
# them is. Read the rows as where the time went, not as a measurement.
#
# Every run's result line is kept in the output directory. It only calls
# the harness; it changes no file under bench/.
#
#     benchpair.sh --report <dir> <workload> [pairs=10]
#
# prints the report again from the result lines an earlier invocation
# left in <dir>, running nothing (scripts/benchpair_test.sh feeds it
# made-up lines to check the verdicts and the mark).
#
# Exit status: 0 when every run executed and reported ops_failed = 0 on
# both sides, 1 otherwise. The verdict columns are for the reader — a
# regression gate belongs to the driver, with the bounds in BENCHMARK.json.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-ref> <workload> [pairs=10] [first-seed=1]" >&2
    echo "       $0 --report <dir> <workload> [pairs=10]" >&2
    exit 2
}
seconds=28 # BENCHMARK.json run_seconds: the length the driver uses
traced=4
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

# run <side> <dir> <seed> [trace] [tag]: one benchmark run; its result
# line (the last line of standard output) is appended to
# $work/<side>.jsonl, or to $work/<side>.trace.jsonl for a traced run;
# its standard error goes to $work/<side>[.trace].<seed><tag>.log.
run() {
    local side=$1 dir=$2 seed=$3 trace=${4:-0} out=$1 line log
    if ((trace)); then out=$side.trace; fi # its own file: not one of the pairs
    log=$work/$out.$seed${5:-}.log
    if ! line=$(bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>"$log" | tail -n 1); then
        echo "benchpair: $side run failed at seed $seed, see $log" >&2
        exit 1
    fi
    echo "$line" >>"$work/$out.jsonl"
    echo "benchpair:   $out seed $seed: $line" >&2
}

# measure: export the parent, then the pairs and the traced pass.
measure() {
    local commit i seed
    root=$(git -C "$root" rev-parse --show-toplevel)
    commit=$(git -C "$root" rev-parse --verify "$ref^{commit}")
    work=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
    trap 'rm -rf "$work/parent"' EXIT
    mkdir "$work/parent"
    git -C "$root" archive "$commit" | tar -x -C "$work/parent"
    echo "benchpair: parent $ref ($(git -C "$root" rev-parse --short "$commit")) in $work/parent, change in $root" >&2
    echo "benchpair: $pairs pairs of $workload, $seconds s a side; result lines in $work" >&2

    for ((i = 1; i <= pairs; i++)); do
        echo "benchpair: pair $i/$pairs" >&2
        seed=$((seed0 + i - 1))
        if ((i % 2)); then
            run parent "$work/parent" "$seed"
            run head "$root" "$seed"
        else
            run head "$root" "$seed"
            run parent "$work/parent" "$seed"
        fi
    done

    echo "benchpair: traced pass, $traced pairs at seed 1" >&2
    for ((i = 1; i <= traced; i++)); do
        if ((i % 2)); then
            run parent "$work/parent" 1 1 ".$i"
            run head "$root" 1 1 ".$i"
        else
            run head "$root" 1 1 ".$i"
            run parent "$work/parent" 1 1 ".$i"
        fi
    done
}

if [ "${1:-}" = --report ]; then
    if [ $# -lt 3 ] || [ $# -gt 4 ]; then usage; fi
    work=$2 workload=$3 pairs=${4:-10}
else
    if [ $# -lt 2 ] || [ $# -gt 4 ]; then usage; fi
    ref=$1 workload=$2 pairs=${3:-10} seed0=${4:-1}
    measure
fi

# The metric list (name, unit, direction) comes from BENCHMARK.json; the
# values from the result lines: {"…","failed":N,"metrics":{"name":{"value":V,…},…}}.
metrics=$(tr -d ' \n' <"$root/BENCHMARK.json" |
    sed 's/.*"end_to_end":\[\([^]]*\)\].*/\1/' |
    grep -o '{[^}]*}' |
    sed 's/.*"name":"\([^"]*\)".*"unit":"\([^"]*\)".*"better":"\([^"]*\)".*/\1 \2 \3/')
# The phases of a run among BENCHMARK.json's per-layer metrics, in its order.
layers=$(tr -d ' \n' <"$root/BENCHMARK.json" |
    sed 's/.*"per_layer":\[\([^]]*\)\].*/\1/' |
    grep -o '"name":"[^"]*"' | cut -d'"' -f4 |
    grep -E '^(scenario\.parse_s|core\.(build|warmup|steady|finish)_s|(analysis|tstore)\.[a-z]+_s|proc\.peak_rss_mb)$')

awk -v metrics="$metrics" -v layers="$layers" -v pairs="$pairs" -v traced="$traced" -v workload="$workload" '
function value(line, name,    m) {
    if (!match(line, "\"" name "\":\\{\"value\":[-+0-9.eE]+")) return "nan"
    m = substr(line, RSTART, RLENGTH); sub(/.*:/, "", m); return m + 0
}
function failed(line,    m) {
    if (!match(line, "\"failed\":[0-9]+")) return 1
    m = substr(line, RSTART, RLENGTH); sub(/.*:/, "", m); return m + 0
}
# quantile of v[1..n] (sorted in place), linear interpolation between ranks.
function quantile(v, n, p,    i, j, t, pos, lo) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    pos = 1 + (n - 1) * p; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
FILENAME ~ /parent\.trace\.jsonl$/ { npt++; PT[npt] = $0; pf += failed($0); next }
FILENAME ~ /head\.trace\.jsonl$/   { nht++; HT[nht] = $0; hf += failed($0); next }
FILENAME ~ /parent\.jsonl$/        { np++; P[np] = $0; pf += failed($0); next }
                                   { nh++; H[nh] = $0; hf += failed($0) }
END {
    if (np != pairs || nh != pairs) { printf "benchpair: %d parent and %d head result lines, want %d each\n", np, nh, pairs; exit 1 }
    if (npt != traced || nht != traced) { printf "benchpair: %d parent and %d head traced lines, want %d each\n", npt, nht, traced; exit 1 }
    printf "\n%s: %d pairs, parent vs change (median [q1, q3]); ops failed: parent %d, change %d\n\n", workload, pairs, pf, hf
    printf "  %-20s %-6s %-40s %-40s %8s  %-12s %s\n", "metric", "unit", "parent", "change", "median", "won-lost", "claimable gain / beyond parent IQR"
    nm = split(metrics, M, "\n")
    for (k = 1; k <= nm; k++) {
        split(M[k], f, " "); name = f[1]; unit = f[2]; sign = (f[3] == "lower") ? -1 : 1
        won = lost = 0
        for (i = 1; i <= pairs; i++) {
            a[i] = value(P[i], name); b[i] = value(H[i], name)
            if ((b[i] - a[i]) * sign > 0) won++; else if (b[i] != a[i]) lost++
        }
        pm = quantile(a, pairs, .5); p1 = quantile(a, pairs, .25); p3 = quantile(a, pairs, .75)
        hm = quantile(b, pairs, .5); h1 = quantile(b, pairs, .25); h3 = quantile(b, pairs, .75)
        diff = hm - pm; beyond = (diff < 0 ? -diff : diff) > (p3 - p1)
        gain = beyond && diff * sign > 0 && won * 10 >= pairs * 9
        printf "  %-20s %-6s %-40s %-40s %+7.1f%%  %2d-%-2d of %-3d %s / %s\n", name, unit,
            sprintf("%.6g [%.6g, %.6g]", pm, p1, p3), sprintf("%.6g [%.6g, %.6g]", hm, h1, h3),
            pm ? 100 * diff / pm : 0, won, lost, pairs, gain ? "yes" : "no", beyond ? (diff * sign > 0 ? "better" : "WORSE") : "no"
    }
    printf "\n%s: where the time went — median [min, max] of %d traced runs a side (seed 1, alternating which side goes first), sums over a repetition\n\n", workload, traced
    printf "  %-20s %-30s %-30s %12s\n", "per-layer metric", "parent", "change", "difference"
    nl = split(layers, L, "\n")
    for (k = 1; k <= nl; k++) {
        nan = 0
        for (i = 1; i <= traced; i++) {
            a[i] = value(PT[i], L[k]); b[i] = value(HT[i], L[k])
            if (a[i] == "nan" || b[i] == "nan") nan = 1
        }
        if (nan) continue
        pv = quantile(a, traced, .5); hv = quantile(b, traced, .5) # sorts a and b
        if (pv == 0 && hv == 0) continue
        overlap = a[1] <= b[traced] && b[1] <= a[traced]
        printf "  %-20s %-30s %-30s %+12.4g%s\n", L[k],
            sprintf("%.4g [%.4g, %.4g]", pv, a[1], a[traced]), sprintf("%.4g [%.4g, %.4g]", hv, b[1], b[traced]),
            hv - pv, overlap ? "  within spread" : ""
    }
    exit (pf + hf) > 0
}' "$work/parent.jsonl" "$work/head.jsonl" "$work/parent.trace.jsonl" "$work/head.trace.jsonl"
