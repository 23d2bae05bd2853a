#!/usr/bin/env bash
# Prints the repository's Rust line counts:
#   non-test  lines of `.rs` files under crates/ and src/ above each file's
#             `#[cfg(test)] mod tests` module;
#   test      those modules plus every `.rs` file under tests/.
#
# Usage: scripts/net_lines.sh [REV]
# With REV (any git revision) the committed tree of REV is counted instead of
# the working tree, so a change's net count is the difference of two runs:
#   scripts/net_lines.sh HEAD~1; scripts/net_lines.sh
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
rev="${1:-}"

list() {
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev" -- "$@"
    else
        git ls-files --cached --others --exclude-standard -- "$@"
    fi | grep '\.rs$' || true
}

show() {
    if [ -n "$rev" ]; then git show "$rev:$1"; elif [ -f "$1" ]; then cat "$1"; fi
}

non_test=0
test=0
for f in $(list crates src); do
    read -r above below < <(show "$f" | awk '
        /^#\[cfg\(test\)\]/ { pending = NR; next }
        pending && /^mod tests/ && !split_at { split_at = pending }
        pending { pending = 0 }
        END {
            if (!split_at) split_at = NR + 1
            print split_at - 1, NR - split_at + 1
        }')
    non_test=$((non_test + above))
    test=$((test + below))
done
for f in $(list tests); do
    test=$((test + $(show "$f" | wc -l)))
done
echo "non-test $non_test"
echo "test $test"
