#!/usr/bin/env bash
# Alternating parent/change runs of the repo benchmark on one workload.
#
#   tools/alternate.sh <parent-ref> <workload> <pairs>
#
# Builds the frozen benchmark package (crates/bench/src/bin/benchmark) twice
# in release mode: once from <parent-ref>, unpacked with `git archive` under
# target/alternate/, and once from the working tree. Then runs
#
#   benchmark --workload <workload> --seed <i> --seconds 12 --trace 0
#
# for pairs i = 1..<pairs>, parent and change back to back, swapping which
# goes first from pair to pair so a drifting host favours neither side. Each
# side runs from its own source root, as the acceptance driver does. Prints,
# per end-to-end metric of BENCHMARK.json, each side's median and Q1-Q3
# (Python's `statistics.quantiles` exclusive method, the benchmark's own
# `--compare` quartiles), the change/parent ratio of the medians, and the
# two tests a claimed gain must pass:
#
#   wins      pairs the change won and lost, matched by seed, "better" read
#             from the metric's `better` field in BENCHMARK.json; ties count
#             for neither side (a claim needs 9 of every 10 pairs);
#   gap>IQR   whether the medians differ by more than the parent's Q3 - Q1.
#
# Raw per-run metric lines (side, seed, metric, value) are kept in
# target/alternate/runs.txt. The parent's source copy is removed on exit;
# the two build directories are kept warm. Needs the parent's benchmark to
# take the same arguments (it is frozen).
set -euo pipefail

if [[ $# -ne 3 ]] || ! [[ $3 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 <parent-ref> <workload> <pairs>" >&2
    exit 2
fi
ref=$1 workload=$2 pairs=$3
root=$(git rev-parse --show-toplevel)
cd "$root"
parent_sha=$(git rev-parse --verify "$ref^{commit}")
out=$root/target/alternate
parent_src=$out/parent-src
manifest=crates/bench/src/bin/benchmark/Cargo.toml
mkdir -p "$out"

cleanup() { rm -rf "$parent_src"; }
trap cleanup EXIT
cleanup
mkdir -p "$parent_src"
git archive "$parent_sha" | tar -x -C "$parent_src"

build() { # <source root> <target dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --offline -q --manifest-path "$manifest")
}
echo "building parent ${parent_sha:0:12} and the working tree ..." >&2
build "$parent_src" "$out/parent-build"
build "$root" "$out/change-build"

# One "<metric> <better>" line per end-to-end metric.
metrics=$(sed -n '/"end_to_end"/,/"per_layer"/p' BENCHMARK.json |
    sed -n 's/.*"name": *"\([a-z0-9_]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p')

runs=$out/runs.txt
: >"$runs"
run() { # <side> <seed>
    local dir bin
    if [[ $1 == parent ]]; then dir=$parent_src bin=$out/parent-build/release/benchmark
    else dir=$root bin=$out/change-build/release/benchmark; fi
    echo "pair $2: $1" >&2
    (cd "$dir" && "$bin" --workload "$workload" --seed "$2" --seconds 12 --trace 0) |
        awk -v side="$1" -v seed="$2" -v w="$workload" '$1 == w && NF == 4 { print side, seed, $2, $3 }' >>"$runs"
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then run parent "$i"; run change "$i"
    else run change "$i"; run parent "$i"; fi
done

echo "$workload: $pairs alternating pairs, parent ${parent_sha:0:12} vs working tree"
printf '%-22s %-34s %-34s %-13s %-7s %s\n' metric "parent median [Q1-Q3]" "change median [Q1-Q3]" \
    change/parent wins gap\>IQR
while read -r m better; do
    awk -v m="$m" -v better="$better" '
        function quartiles(v, n, q,    i, j, d, k) {   # exclusive method
            for (k = 1; k <= 3; k++) {
                j = int(k * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
                d = k * (n + 1) / 4 - j
                q[k] = v[j] + (v[j + 1] - v[j]) * d
            }
        }
        function sorted(v, n,    i, j, t) {
            for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
                t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
            }
        }
        function cell(v, n, q) {
            if (n == 0) return "-"
            if (n == 1) { q[2] = v[1]; return sprintf("%.6g", v[1]) }
            sorted(v, n); quartiles(v, n, q)
            return sprintf("%.6g [%.6g-%.6g]", q[2], q[1], q[3])
        }
        $3 == m && $1 == "parent" { p[++np] = $4; ps[$2] = $4 }
        $3 == m && $1 == "change" { c[++nc] = $4; cs[$2] = $4 }
        END {
            # Pairs matched by seed: the change wins where it reads better.
            won = lost = pairs = 0
            for (seed in ps) if (seed in cs) {
                pairs++
                d = (better == "lower") ? ps[seed] - cs[seed] : cs[seed] - ps[seed]
                if (d > 0) won++; else if (d < 0) lost++
            }
            a = cell(p, np, qp); b = cell(c, nc, qc)
            r = (np && nc && qp[2] != 0) ? sprintf("%.4f", qc[2] / qp[2]) : "-"
            gap = qc[2] - qp[2]; if (gap < 0) gap = -gap
            beyond = (np > 1 && nc) ? (gap > qp[3] - qp[1] ? "yes" : "no") : "-"
            printf "%-22s %-34s %-34s %-13s %-7s %s\n", m, a, b, r, won ":" lost "/" pairs, beyond
        }' "$runs"
done <<<"$metrics"
