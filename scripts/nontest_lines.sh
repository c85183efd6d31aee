#!/usr/bin/env bash
# Non-test lines of Rust source — the size figure streamdb PRs and the
# ROADMAP quote, as a command.
#
#   scripts/nontest_lines.sh <dir>...
#
# For every *.rs file under each <dir>, counts the lines before the first
# line that starts with `#[cfg(test)]` (the whole file when there is none),
# prints one `count path` line per file in path order, a total per <dir>,
# and a grand total when more than one <dir> was given.
#
# Exit status: 0; 2 on a usage error or a <dir> that is not a directory.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    sed -n '2,12p' "$0" >&2
    exit 2
fi

grand=0
for dir in "$@"; do
    if [[ ! -d $dir ]]; then
        echo "nontest_lines: not a directory: $dir" >&2
        exit 2
    fi
    total=0
    while IFS= read -r file; do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$file")
        printf '%7d %s\n' "$n" "$file"
        total=$((total + n))
    done < <(find "$dir" -name '*.rs' | LC_ALL=C sort)
    printf '%7d %s (total)\n' "$total" "$dir"
    grand=$((grand + total))
done
if [[ $# -gt 1 ]]; then
    printf '%7d total\n' "$grand"
fi
