#!/usr/bin/env bash
# A/A check: runs the whole benchmark twice on the same tree and fails if any
# end-to-end metric differs by more than its bound, or any exact count or
# answers_digest differs at all. Takes the arguments of a full run, e.g.
# `benchmark/aa.sh --seed 7`.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

mkdir -p benchmark/out
run --workload all --out benchmark/out/aa-1.json "$@" >/dev/null
run --workload all --out benchmark/out/aa-2.json "$@" >/dev/null
run --compare benchmark/out/aa-1.json benchmark/out/aa-2.json
