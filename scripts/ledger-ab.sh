#!/usr/bin/env bash
# The ledger's claim protocol (benchmark/README.md, "How a later PR states a
# claim", step 3) as one command: alternating parent/change pairs of one
# workload — or of every workload — then one table: per workload and
# end-to-end metric each side's median and quartiles, pairs won, the bound
# from BENCHMARK.json and a verdict.
#
#   scripts/ledger-ab.sh <workload>|all <parent-rev> [pairs] [seed]
#
#   workload    a name from BENCHMARK.json (delta_source, service_read, ...);
#               `all` runs every one in turn — the no-regression evidence a
#               PR that claims no gain owes
#   parent-rev  the commit the working tree is compared with
#   pairs       alternating pairs to run (default 10, the protocol's minimum)
#   seed        the ledger's --seed (default: its own); state a claim on a
#               second seed not used while writing the change as well
#
# Verdicts: `worse-than-bound` when the change's median is worse than the
# parent's by more than the bound; `unresolved` when either side's
# interquartile spread is wider than the bound — unless every run of the
# change reads better than every run of the parent — and then every pair is
# listed under the table; `ok` otherwise.  Under the table, every cell's
# (`cell.*`) parent and change median and their ratio say which cells a
# gain or a loss comes from, and each side's median `attempted` a run says
# how many operations it timed: the ledger keeps every latency sample, so
# `peak_rss_mb` grows with that count (ROADMAP 2a) and an RSS verdict is
# read against throughput.
#
# The parent is unpacked with `git archive` under target/ledger-ab/ and both
# ledgers are built by their own, unedited benchmark/run.sh into separate
# CARGO_TARGET_DIRs.  The change is the working tree as it stands.  Odd
# pairs run the parent first, even pairs the change.  Every run's numbers
# are kept in target/ledger-ab/<workload>.<seed>.tsv.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    sed -n '2,29s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
pairs=${3:-10}
seed=${4:-20080407}

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
contract=$root/BENCHMARK.json
if [ "$1" = all ]; then
    workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$contract")
else
    workloads=$1
    grep -q "\"name\": \"$1\", \"why\"" "$contract" || {
        echo "ledger-ab: $1 is not a workload of BENCHMARK.json" >&2
        exit 2
    }
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$contract")
parent=$(git -C "$root" rev-parse --verify --quiet "$2^{commit}") || {
    echo "ledger-ab: $2 is not a commit" >&2
    exit 2
}

work=$root/target/ledger-ab
tree=$work/parent-$parent
if [ ! -d "$tree" ]; then
    mkdir -p "$tree"
    git -C "$root" archive "$parent" | tar -x -C "$tree"
fi

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

# One timed run; appends a "workload side pair metric value" row for every
# line of the ledger's table (end-to-end metrics, cells, counts) and the
# run's attempted/failed counts.
run() {
    local workload=$1 side=$2 pair=$3
    ledger "$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        awk -v workload="$workload" -v side="$side" -v pair="$pair" -v OFS='\t' '
            $1 == "#" && $5 == "attempted" {
                print workload, side, pair, "attempted", $6
                print workload, side, pair, "failed", $8
            }
            $NF ~ /^n=[0-9]+$/ { print workload, side, pair, $1, $2 }
        ' >>"$work/$workload.$seed.tsv"
}
tables=()
for workload in $workloads; do
    : >"$work/$workload.$seed.tsv"
    tables+=("$work/$workload.$seed.tsv")
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "ledger-ab: $workload, pair $pair of $pairs, $side" >&2
            run "$workload" "$side" "$pair"
        done
    done
done

echo "# seed $seed: $pairs alternating pairs of $seconds s a workload," \
    "parent $(git -C "$root" rev-parse --short "$parent") against the working tree"
awk -F'\t' -v contract="$contract" '
    function quantile(v, n, p,    h, lo) {
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    # Sets q1/mid/q3/lo/hi[side] for one workload and metric.
    function summary(w, side, metric,    n, i, v, tmp, j) {
        n = count[w, metric]
        for (i = 1; i <= n; i++) v[i] = value[w, side, metric, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { tmp = v[j]; v[j] = v[j - 1]; v[j - 1] = tmp }
        q1[side] = quantile(v, n, 0.25); mid[side] = quantile(v, n, 0.5); q3[side] = quantile(v, n, 0.75)
        lo[side] = v[1]; hi[side] = v[n]
        return sprintf("%.4g [%.4g, %.4g]", mid[side], q1[side], q3[side])
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
                bound[name] = substr(line, RSTART + 9, RLENGTH - 9) + 0
            }
        }
    }
    !($1 in seen) { seen[$1] = 1; workload[++workloads] = $1 }
    $4 == "attempted" || $4 == "failed" { total[$1, $2, $4] += $5 }
    $4 == "failed" { next }
    $4 ~ /^cell\./ && !(($1, $4) in celled) { celled[$1, $4] = 1; cell[$1, ++cells[$1]] = $4 }
    { value[$1, $2, $4, $3] = $5; if ($3 > count[$1, $4]) count[$1, $4] = $3 }
    END {
        printf "%-16s %-16s %-36s %-36s %-9s %-9s %-6s %s\n", "workload", "metric",
            "parent median [q1, q3]", "change median [q1, q3]", "change/p", "won/lost", "bound", "verdict"
        for (k = 1; k <= workloads; k++) {
            w = workload[k]
            for (m = 1; m <= metrics; m++) {
                name = order[m]; won = lost = 0; sign = better[name]
                for (i = 1; i <= count[w, name]; i++) {
                    d = (value[w, "change", name, i] - value[w, "parent", name, i]) * sign
                    if (d > 0) won++; else if (d < 0) lost++
                }
                p = summary(w, "parent", name); c = summary(w, "change", name)
                worse = (mid["parent"] - mid["change"]) * sign / mid["parent"]
                spread = (q3["parent"] - q1["parent"]) / mid["parent"]
                other = (q3["change"] - q1["change"]) / mid["change"]
                if (other > spread) spread = other
                apart = sign > 0 ? lo["change"] > hi["parent"] : hi["change"] < lo["parent"]
                verdict = worse > bound[name] ? "worse-than-bound" : spread > bound[name] && !apart ? "unresolved" : "ok"
                printf "%-16s %-16s %-36s %-36s %-9.3f %-9s %-6s %s\n", w, name, p, c,
                    mid["change"] / mid["parent"], won "/" lost, bound[name], verdict
                if (verdict == "unresolved")
                    for (i = 1; i <= count[w, name]; i++)
                        listed = listed sprintf("  %s %s pair %d: parent %.4g, change %.4g\n", w, name, i,
                            value[w, "parent", name, i], value[w, "change", name, i])
            }
        }
        printf "%s", listed
        for (k = 1; k <= workloads; k++) {
            w = workload[k]
            if (cells[w]) printf "%-16s %-36s %-12s %-12s %s\n", w, "cell", "parent", "change", "change/p"
            for (c = 1; c <= cells[w]; c++) {
                name = cell[w, c]
                summary(w, "parent", name); summary(w, "change", name)
                printf "%-16s %-36s %-12.4g %-12.4g %.3f\n", w, name, mid["parent"], mid["change"],
                    mid["parent"] ? mid["change"] / mid["parent"] : 0
            }
        }
        for (k = 1; k <= workloads; k++) {
            w = workload[k]
            printf "failed: %s parent %d of %d attempted, change %d of %d\n", w,
                total[w, "parent", "failed"], total[w, "parent", "attempted"],
                total[w, "change", "failed"], total[w, "change", "attempted"]
            printf "attempted a run: %s parent %s, change %s\n", w,
                summary(w, "parent", "attempted"), summary(w, "change", "attempted")
        }
    }
' "${tables[@]}"
echo "runs: ${tables[*]}"
