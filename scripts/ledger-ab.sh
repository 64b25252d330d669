#!/usr/bin/env bash
# The ledger's claim protocol (benchmark/README.md, "How a later PR states a
# claim", step 3) as one command: alternating parent/change pairs of one
# workload, then each side's median and quartiles per end-to-end metric.
#
#   scripts/ledger-ab.sh <workload> <parent-rev> [pairs] [seed]
#
#   workload    a name from BENCHMARK.json (delta_source, service_read, ...)
#   parent-rev  the commit the working tree is compared with
#   pairs       alternating pairs to run (default 10, the protocol's minimum)
#   seed        the ledger's --seed (default: its own); state a claim on a
#               second seed not used while writing the change as well
#
# The parent is checked out with `git worktree` under target/ledger-ab/ and
# both ledgers are built by their own, unedited benchmark/run.sh into
# separate CARGO_TARGET_DIRs.  The change is the working tree as it stands.
# Odd pairs run the parent first, even pairs the change.  Every run's
# numbers are kept in target/ledger-ab/<workload>.<seed>.tsv.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    sed -n '2,18s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
workload=$1
parent_rev=$2
pairs=${3:-10}
seed=${4:-20080407}

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
contract=$root/BENCHMARK.json
grep -q "\"name\": \"$workload\"" "$contract" || {
    echo "ledger-ab: $workload is not a workload of BENCHMARK.json" >&2
    exit 2
}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$contract")
parent=$(git -C "$root" rev-parse --verify --quiet "$parent_rev^{commit}") || {
    echo "ledger-ab: $parent_rev is not a commit" >&2
    exit 2
}

work=$root/target/ledger-ab
tree=$work/parent-$parent
mkdir -p "$work"
[ -d "$tree" ] || git -C "$root" worktree add --quiet --detach "$tree" "$parent"

# ledger <side> <args...>: that side's run.sh, its own target directory.
ledger() {
    local side=$1 dir
    shift
    if [ "$side" = parent ]; then dir=$tree; else dir=$root; fi
    (cd "$dir" && CARGO_TARGET_DIR=$work/$side-target bash benchmark/run.sh "$@")
}

# Build both sides before anything is timed; `check` also holds each
# ledger's output against its own BENCHMARK.json.
for side in parent change; do
    echo "ledger-ab: building and checking the $side ledger" >&2
    ledger "$side" check >/dev/null
done

runs=$work/$workload.$seed.tsv
: >"$runs"
# One timed run; appends a "side pair metric value" row for every line of
# the ledger's table (end-to-end metrics, cells, counts) and the run's
# attempted/failed counts.
run() {
    local side=$1 pair=$2
    ledger "$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        awk -v side="$side" -v pair="$pair" -v OFS='\t' '
            $1 == "#" && $5 == "attempted" {
                print side, pair, "attempted", $6
                print side, pair, "failed", $8
            }
            $NF ~ /^n=[0-9]+$/ { print side, pair, $1, $2 }
        ' >>"$runs"
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "ledger-ab: pair $pair of $pairs, $side" >&2
        run "$side" "$pair"
    done
done

echo "# $workload seed $seed: $pairs alternating pairs of $seconds s," \
    "parent $(git -C "$root" rev-parse --short "$parent") against the working tree"
awk -F'\t' -v contract="$contract" '
    function quantile(v, n, p,    h, lo) {
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function summary(side, metric,    n, i, v, tmp, j) {
        n = count[side, metric]
        for (i = 1; i <= n; i++) v[i] = value[side, metric, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { tmp = v[j]; v[j] = v[j - 1]; v[j - 1] = tmp }
        median[side] = quantile(v, n, 0.5)
        return sprintf("%.4g / %.4g / %.4g", quantile(v, n, 0.25), median[side], quantile(v, n, 0.75))
    }
    BEGIN {
        while ((getline line < contract) > 0) {
            if (line ~ /"end_to_end"/) inside = 1
            else if (inside && line ~ /\]/) inside = 0
            else if (inside && match(line, /"name": "[^"]*"/)) {
                name = substr(line, RSTART + 9, RLENGTH - 10)
                order[++metrics] = name
                better[name] = line ~ /"better": "higher"/ ? 1 : -1
                match(line, /"bound": [0-9.]*/)
                bound[name] = substr(line, RSTART + 9, RLENGTH - 9)
            }
        }
    }
    $3 == "attempted" || $3 == "failed" { total[$1, $3] += $4; next }
    { value[$1, $3, $2] = $4; if ($2 > count[$1, $3]) count[$1, $3] = $2 }
    END {
        printf "%-16s %-7s %-36s %-36s %-14s %-15s %s\n", "metric", "better",
            "parent q1 / median / q3", "change q1 / median / q3", "change/parent", "won/lost/tied", "bound"
        for (m = 1; m <= metrics; m++) {
            name = order[m]; won = lost = tied = 0
            for (i = 1; i <= count["parent", name]; i++) {
                d = (value["change", name, i] - value["parent", name, i]) * better[name]
                if (d > 0) won++; else if (d < 0) lost++; else tied++
            }
            p = summary("parent", name); c = summary("change", name)
            printf "%-16s %-7s %-36s %-36s %-14.3f %-15s %s\n", name,
                (better[name] > 0 ? "higher" : "lower"), p, c,
                median["change"] / median["parent"], won "/" lost "/" tied, bound[name]
        }
        printf "failed: parent %d of %d attempted, change %d of %d\n",
            total["parent", "failed"], total["parent", "attempted"],
            total["change", "failed"], total["change", "attempted"]
    }
' "$runs"
echo "runs: $runs    (remove the parent checkout with: git worktree remove $tree)"
