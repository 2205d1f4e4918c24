#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one contract run; the last line of standard output is the result
#   benchmark/run.sh [--seed S] [--workload W] [--out DIR] [--smoke] [--record]
#       the suite: the four workloads untraced, then traced; writes
#       DIR/results.json (default benchmark/out); --record also appends one
#       line to benchmark/trajectory.jsonl
#
# Exits non-zero when the build fails, an operation fails, or an exact
# metric differs between jobs of one run.
set -euo pipefail

dir=$(dirname "$0")
target=${CARGO_TARGET_DIR:-$dir/target}

start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
end=$(date +%s.%N)
# Not a metric: compilation is no part of set-up.
echo "build_s $(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }') s" >&2

args=()
for arg in "$@"; do
  if [ "$arg" = "--record" ]; then
    # The suite stamps the line with the revision when it can be known.
    BPART_GIT_REV=${BPART_GIT_REV:-$(git -C "$dir" rev-parse --short HEAD 2>/dev/null || echo unknown)}
    export BPART_GIT_REV
    args+=(--record "$dir/trajectory.jsonl")
  else
    args+=("$arg")
  fi
done

exec "$target/release/bpart-benchmark" "${args[@]}"
