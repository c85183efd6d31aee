#!/usr/bin/env bash
# Alternating parent/change benchmark runs — the comparison the
# choosing-metrics method asks for (same seed per pair, sides take turns
# going first), as one command.
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <workload> <pairs> [seed0]
#
# Builds each checkout's benchmark/ once, then for pair i = 0..pairs-1 runs
# BENCHMARK.json's command (taken from the change checkout, with its
# run_seconds) on both sides with --seed seed0+i (default seed0 = 7), each
# from its own checkout root. Reads only the JSON result line (the last
# line of stdout). Prints one line per run, then per metric: both medians
# with quartiles, and in how many pairs the change read better (ties count
# for neither side). BENCH_TRACE=1 makes the runs traced ones, so the
# metrics are the per-layer ladder instead of the end-to-end set.
#
# Then, for each end-to-end metric, the spread check the driver applies
# before it will compare medians at all: the middle half (q3 - q1) of the
# change's runs against that metric's `bound` (read from BENCHMARK.json)
# times the parent's median — `ok` at or under it, `SPREAD` over it. The
# bound is absolute, so a metric the change makes larger carries a
# proportionally larger spread into the same allowance.
#
# Exit status: 0 when every run on both sides reported failed = 0 and
# correct = true; 1 otherwise; 2 on a usage error. Needs cargo and jq.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    sed -n '2,25p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seed0=${5:-7}
trace=${BENCH_TRACE:-0}

decl="$change/BENCHMARK.json"
mapfile -t cmd < <(jq -r '.command[]' "$decl")
seconds=$(jq -r '.run_seconds' "$decl")

for side in "$parent" "$change"; do
    echo "building $side/benchmark" >&2
    (cd "$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run: appends {pair, side, result} to $runs and prints its line.
run_side() {
    local pair=$1 side=$2 root=$3 seed=$4 line
    line=$(cd "$root" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1) || true
    if ! jq -e . >/dev/null 2>&1 <<<"$line"; then
        line='{"correct":false,"attempted":0,"failed":1,"metrics":{}}'
    fi
    jq -c --argjson pair "$pair" --arg side "$side" \
        '{pair: $pair, side: $side, result: .}' <<<"$line" >>"$runs"
    jq -r --argjson pair "$pair" --arg side "$side" --argjson seed "$seed" '
        "pair \($pair) seed \($seed) \($side): failed \(.failed)/\(.attempted) correct \(.correct) "
        + (.metrics | to_entries | map("\(.key)=\(.value.value)") | join(" "))' <<<"$line"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        run_side "$i" parent "$parent" "$seed"
        run_side "$i" change "$change" "$seed"
    else
        run_side "$i" change "$change" "$seed"
        run_side "$i" parent "$parent" "$seed"
    fi
done

# Order statistics both summaries below share.
stats='
    def quantile(q): sort | .[((length - 1) * q | round)];
    def median: sort | (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2;'

echo
echo "== $workload: $pairs pairs, seeds $seed0..$((seed0 + pairs - 1)), --seconds $seconds --trace $trace"
echo "== metric (better): parent median [q1 .. q3] -> change median [q1 .. q3], change wins / pairs"
jq -r -s --slurpfile decl "$decl" "$stats"'
    def summary: "\(median) [\(quantile(0.25)) .. \(quantile(0.75))]";
    (($decl[0].end_to_end + $decl[0].per_layer) | map({(.name): .better}) | add) as $better
    | . as $runs
    | ($runs | map(.result.metrics | keys[]) | unique) as $names
    | $names[] as $m
    | ($runs | map(select(.side == "parent") | {(.pair | tostring): .result.metrics[$m].value}) | add) as $p
    | ($runs | map(select(.side == "change") | {(.pair | tostring): .result.metrics[$m].value}) | add) as $c
    | ([$p | keys[] | select($p[.] != null and $c[.] != null)
        | if $better[$m] == "higher" then $c[.] > $p[.] else $c[.] < $p[.] end]
        | map(select(.)) | length) as $wins
    | "\($m) (\($better[$m] // "?")): \([$p[] | values] | summary) -> \([$c[] | values] | summary), \($wins) / \($p | length)"
' "$runs"

echo "== spread: change IQR / (bound x parent median); SPREAD = the runs spread too widely to compare"
jq -r -s --slurpfile decl "$decl" "$stats"'
    def values_of($side; $m): map(select(.side == $side) | .result.metrics[$m].value | values);
    . as $runs
    | $decl[0].end_to_end[]
    | .name as $m | .bound as $bound
    | ($runs | values_of("parent"; $m)) as $p
    | ($runs | values_of("change"; $m)) as $c
    | select(($p | length) > 0 and ($c | length) > 0)
    | (($c | quantile(0.75)) - ($c | quantile(0.25))) as $iqr
    | ($bound * ($p | median)) as $allowed
    | if $allowed == 0 then "\($m): change IQR \($iqr), parent median 0: n/a"
      else "\($m): change IQR \($iqr) / (\($bound) x \($p | median) = \($allowed * 1e6 | round / 1e6)) = \($iqr / $allowed * 100 | round / 100) \(if $iqr <= $allowed then "ok" else "SPREAD" end)"
      end
' "$runs"

bad=$(jq -s 'map(select(.result.failed > 0 or .result.correct != true)) | length' "$runs")
if ((bad > 0)); then
    echo "== $bad run(s) reported failed operations or a failed check" >&2
    exit 1
fi
