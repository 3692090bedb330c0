#!/usr/bin/env bash
# benchpair_test.sh — checks benchpair.sh's report on made-up result
# lines, running no benchmark: the "within spread" mark is set when the
# two sides' [min, max] ranges overlap, and only then. The case that
# matters: parent core.steady_s 0.254 [0.215, 0.296] s against change
# 0.186 [0.151, 0.193] s, ranges that do not overlap although one slow
# parent run makes the parent's range wider than the medians' distance,
# must not be marked. Exit status 0 when every check holds.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/benchpair_test.XXXXXX")
trap 'rm -rf "$work"' EXIT

# line <core.steady_s> <core.build_s> <core.finish_s>: a result line with
# every end-to-end metric and three phases.
line() {
    printf '{"correct":true,"attempted":1,"failed":0,"metrics":{'
    printf '"setup_s":{"value":0.2,"unit":"s"},"steady_events_per_s":{"value":4e6,"unit":"1/s"},"wall_s":{"value":0.5,"unit":"s"},'
    printf '"alloc_mb":{"value":31,"unit":"MB"},"heap_live_mb":{"value":12,"unit":"MB"},"output_mb":{"value":0.16,"unit":"MB"},'
    printf '"core.steady_s":{"value":%s,"unit":"s"},"core.build_s":{"value":%s,"unit":"s"},"core.finish_s":{"value":%s,"unit":"s"}}}\n' "$1" "$2" "$3"
}
for ((i = 0; i < 10; i++)); do
    line 0.25 0.2 0.01 >>"$work/parent.jsonl"
    line 0.19 0.2 0.01 >>"$work/head.jsonl"
done
# core.steady_s: the case above. core.build_s: overlapping ranges, one
# inside the other. core.finish_s: ranges that touch at one end.
for v in "0.215 0.19 0.010" "0.250 0.20 0.011" "0.258 0.21 0.012" "0.296 0.22 0.013"; do
    line $v >>"$work/parent.trace.jsonl"
done
for v in "0.151 0.18 0.013" "0.185 0.20 0.014" "0.187 0.21 0.015" "0.193 0.25 0.016"; do
    line $v >>"$work/head.trace.jsonl"
done

out=$(bash "$here/benchpair.sh" --report "$work" test-workload 10)
fail=0
check() { # check <phase> <yes|no>: whether its row must be marked
    local row marked=no
    row=$(grep -E "^  $1 " <<<"$out") || { echo "benchpair_test: no $1 row in the report" >&2; fail=1; return; }
    if [[ $row == *"within spread"* ]]; then marked=yes; fi
    if [ "$marked" != "$2" ]; then
        echo "benchpair_test: $1 marked: $marked, want $2: $row" >&2
        fail=1
    fi
}
check core.steady_s no
check core.build_s yes
check core.finish_s yes
exit $fail
