#!/usr/bin/env bash
# Runs one test binary many times and counts failures per test — the check
# for a test that passes once but fails one run in N.
#
#   scripts/repeat_tests.sh <test-binary-name> <runs>
#
# <test-binary-name> is an integration-test target (`request_tracing` for
# tests/tests/request_tracing.rs). Builds it once with `cargo test --no-run`
# (debug profile, the one `cargo test` uses), then runs the binary <runs>
# times from the workspace root. Prints one line per failing run, then
# `failed <f>/<runs> runs` and, per failing test, how many runs it failed
# in. The output of each failing run is kept in a temp directory, which is
# printed.
#
# Exit status: 0 when every run passed; 1 when any run failed; 2 on a usage
# or build error.
set -euo pipefail

if [[ $# -ne 2 || ! $2 =~ ^[1-9][0-9]*$ ]]; then
    sed -n '2,16p' "$0" >&2
    exit 2
fi
name=$1
runs=$2
cd "$(dirname "$0")/.."

build_log=$(mktemp)
trap 'rm -f "$build_log"' EXIT
if ! cargo test --workspace --offline --no-run --test "$name" >"$build_log" 2>&1; then
    cat "$build_log" >&2
    exit 2
fi
# cargo prints `Executable tests/tests/<name>.rs (target/debug/deps/<name>-<hash>)`.
bin=$(sed -n "s/^ *Executable .*(\(.*\/$name-[0-9a-f]*\))\$/\1/p" "$build_log" | tail -n 1)
if [[ -z $bin || ! -x $bin ]]; then
    echo "repeat_tests: no test binary named $name" >&2
    cat "$build_log" >&2
    exit 2
fi

logs=$(mktemp -d)
failed_runs=0
declare -A per_test=()
for ((i = 1; i <= runs; i++)); do
    out="$logs/run-$i.log"
    if "$bin" >"$out" 2>&1; then
        rm -f "$out"
        continue
    fi
    failed_runs=$((failed_runs + 1))
    tests=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$out")
    echo "run $i failed: ${tests:-(no test reported FAILED; see $out)}"
    while IFS= read -r t; do
        [[ -n $t ]] && per_test[$t]=$((${per_test[$t]:-0} + 1))
    done <<<"$tests"
done

echo "$name: failed $failed_runs/$runs runs"
for t in "${!per_test[@]}"; do
    printf '%7d %s\n' "${per_test[$t]}" "$t"
done | sort -rn
if ((failed_runs > 0)); then
    echo "logs of failing runs: $logs"
    exit 1
fi
rmdir "$logs"
