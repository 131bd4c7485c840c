#!/usr/bin/env bash
# Builds the harness offline and runs one workload.
#
#   bench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger;
# without --trace both passes run, one after the other. The last line of
# each pass is its JSON result. Workloads: see BENCHMARK.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The engine reads these; the benchmark fixes its own thread count and tier.
unset RECODE_THREADS RECODE_NO_JIT

target="${CARGO_TARGET_DIR:-$here/e2e/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/e2e/Cargo.toml" >&2
set -- "$target/release/recode-bench-e2e" --out "$here/e2e/out" "$@"

case " $* " in
*" --trace "*) exec "$@" ;;
*)
    "$@" --trace 0
    exec "$@" --trace 1
    ;;
esac
