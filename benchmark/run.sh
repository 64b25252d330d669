#!/usr/bin/env bash
# The one command.  Builds the ledger (release, offline) and runs it.
#
#   benchmark/run.sh                       every workload in a process of its
#                                          own, then every traced run; tables on
#                                          stdout, benchmark/out/latest.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                          one run (BENCHMARK.json's command)
#   benchmark/run.sh check|aa|spread|trace <workload> ...
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started in; resolve it once so the binary is found where it was built.
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
if [ $# -eq 0 ]; then
    set -- all
fi
exec "$target/release/ledger" "$@"
