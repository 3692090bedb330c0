#!/usr/bin/env bash
# loc.sh [REV] — non-test Go lines outside bench/, per package and in
# total, for the working tree; given REV, also REV's count (read with
# git archive, nothing is checked out) and the difference, per package
# and per file that changed. This is the count ROADMAP aim 2 asks every
# PR to report in CHANGES.md. Lines are physical lines (wc -l): comments
# and blanks count, so a comment deleted reads as a line removed — say in
# CHANGES.md what the removed lines were.
set -euo pipefail

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
cd "$root"

# count <dir>: "<lines> <file>" for every non-test .go file outside bench/.
count() {
    (cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
        xargs -0 wc -l | awk '$2 != "total" { sub(/^\.\//, "", $2); print $1, $2 }')
}

head=$(count .)
base=
if [ $# -ge 1 ]; then
    tmp=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
    trap 'rm -rf "$tmp"' EXIT
    git archive "$(git rev-parse --verify "$1^{commit}")" | tar -x -C "$tmp"
    base=$(count "$tmp")
fi

{ sed 's/^/b /' <<<"$base"; sed 's/^/h /' <<<"$head"; } | awk -v rev="${1:-}" '
function pkg(f) { return f ~ /\// ? substr(f, 1, match(f, /\/[^\/]*$/) - 1) : "." }
function sorted(set, out,    k, n, i, j, t) {
    n = 0; for (k in set) out[++n] = k
    for (i = 2; i <= n; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
    return n
}
NF == 3 { lines[$1, $3] = $2; perpkg[$1, pkg($3)] += $2; total[$1] += $2; files[$3]; pkgs[pkg($3)] }
END {
    n = sorted(pkgs, P)
    if (rev == "") {
        for (i = 1; i <= n; i++) printf "%7d  %s\n", perpkg["h", P[i]], P[i]
        printf "%7d  total (non-test Go outside bench/)\n", total["h"]
        exit
    }
    printf "%7.7s %7s %7s  package\n", rev, "tree", "delta"
    for (i = 1; i <= n; i++) printf "%7d %7d %+7d  %s\n", perpkg["b", P[i]], perpkg["h", P[i]], perpkg["h", P[i]] - perpkg["b", P[i]], P[i]
    printf "%7d %7d %+7d  total (non-test Go outside bench/)\n\nfiles that changed size:\n", total["b"], total["h"], total["h"] - total["b"]
    m = sorted(files, F)
    for (i = 1; i <= m; i++) if (lines["b", F[i]] != lines["h", F[i]])
        printf "%7d %7d %+7d  %s\n", lines["b", F[i]], lines["h", F[i]], lines["h", F[i]] - lines["b", F[i]], F[i]
}'
