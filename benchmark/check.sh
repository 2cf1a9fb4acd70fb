#!/usr/bin/env bash
# The benchmark's own acceptance test: two suite runs of the same code
# agree within the benchmark's bounds, and another seed is another
# schedule. Takes about six minutes on two cores; a slow
# spell on the host during one of the suites can fail it — run it again.
#
#   benchmark/check.sh [SEED]      (default 1000)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1000}"
out="$here/out"

# The percentile picker, the self-time computation and the contract table.
cargo test --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "${CARGO_TARGET_DIR:-$here/target}"

"$here/run.sh" --seed "$seed" --repeats 3 --result "$out/check-a.json"
"$here/run.sh" --seed "$seed" --repeats 3 --result "$out/check-b.json"
# Host times and memory within their bounds; sim_* metrics, exact counts,
# ops_failed and schedule digests identical.
"$here/run.sh" compare "$out/check-a.json" "$out/check-b.json"

# One repeat is enough to learn a digest.
"$here/run.sh" --seed "$((seed + 1))" --repeats 1 --result "$out/check-c.json"
"$here/run.sh" compare --digests-differ "$out/check-a.json" "$out/check-c.json"
echo "check.sh: ok"
