#!/usr/bin/env bash
# The size a `[simplicity]` PR reports: non-blank, non-comment lines under
# crates/*/src, outside `#[cfg(test)]` modules — per file, then the total.
#
#   scripts/code-size.sh [rev]
#
#   rev   a commit to count instead of the working tree (unpacked with
#         `git archive` under target/code-size/, removed afterwards)
#
# A comment is a line whose first non-blank characters are `//` (rustdoc
# included).  A test module is a column-0 `#[cfg(test)]` followed by a
# `mod … {` line, up to the column-0 `}` that closes it — the only shape
# the workspace uses.
set -euo pipefail

if [ $# -gt 1 ]; then
    sed -n '2,13s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
if [ $# -eq 1 ]; then
    rev=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
        echo "code-size: $1 is not a commit" >&2
        exit 2
    }
    tree=$root/target/code-size/$rev
    rm -rf "$tree"
    mkdir -p "$tree"
    trap 'rm -rf "$tree"' EXIT
    git -C "$root" archive "$rev" crates | tar -x -C "$tree"
else
    tree=$root
fi

cd "$tree"
find crates/*/src -name '*.rs' | sort | xargs awk '
    function flush() { if (file != "") printf "%6d  %s\n", lines, file }
    FNR == 1 { flush(); file = FILENAME; lines = 0; pending = 0; in_tests = 0 }
    in_tests { if ($0 == "}") in_tests = 0; next }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending && /^mod [a-z_]+ \{/ { pending = 0; in_tests = 1; next }
    # A column-0 `#[cfg(test)]` on anything but a module is code.
    pending && NF { pending = 0; lines++; total++ }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { lines++; total++ }
    END { flush(); printf "%6d  total\n", total }
'
