#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--seed N] [--repeats R]       every workload; prints every
#                                                   metric, writes out/result-seed<N>.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                   one run; the last line of
#                                                   standard output is its result
#   benchmark/run.sh compare A.json B.json          two suite results agree
#   benchmark/run.sh contract                       print BENCHMARK.json
#
# Exits non-zero when the build fails, when repeats disagree on a schedule
# digest, or when a workload's outputs fail verification.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
build() {
    cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" --target-dir "$target" --bin "$1" >&2
}

build sphinx-benchmark
# The traced driver transcribes SphinxRuntime's event loop; a refactor of
# the runtime may stop it compiling. The end-to-end metrics must survive
# that, so its failure only withholds the per-layer span numbers.
if ! build sphinx-benchmark-layers; then
    echo "run.sh: sphinx-benchmark-layers does not build; per-layer span numbers withheld" >&2
    rm -f "$target/release/sphinx-benchmark-layers"
fi

SPHINX_BENCH_RUSTC="$(rustc --version)"
export SPHINX_BENCH_RUSTC
case "${1:-}" in
    compare | contract) exec "$target/release/sphinx-benchmark" "$@" ;;
    *) exec "$target/release/sphinx-benchmark" --out "$here/out" "$@" ;;
esac
