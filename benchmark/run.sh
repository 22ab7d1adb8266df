#!/usr/bin/env bash
# Entry point of the vbench benchmark: builds the binary when its sources are
# newer (bare rustc, offline stubs - see build.sh), clears every VSERVE_*
# variable so nothing but the benchmark's own constants configures the server,
# and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
#   benchmark/run.sh [--seed N] [--trace 1]       whole suite, every metric printed
#   benchmark/run.sh --smoke                       <= 10 s correctness pass on seed 1
#   benchmark/run.sh --self-test                   the benchmark's own unit tests
#   benchmark/run.sh --aa N > benchmark/AA.md      N untraced suites of the same code, as a table
#   benchmark/run.sh --bless                       regenerate benchmark/golden/ for seed 1
#   benchmark/run.sh --compare OLD.json NEW.json   two result files against the bounds
set -euo pipefail
cd "$(dirname "$0")/.."

for v in $(compgen -e | grep '^VSERVE_' || true); do unset "$v"; done

if [ "${1:-}" = --self-test ]; then
  out=$(bash benchmark/build.sh --test | tail -n 1)
  # The tests time real sleeps and spawn children: one at a time.
  exec "$out/vbench_test" --test-threads=1
fi

out=$(bash benchmark/build.sh | tail -n 1)
VBENCH_GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
VBENCH_RUSTC=$(${RUSTC:-rustc} --version)
export VBENCH_GIT_REV VBENCH_RUSTC
exec "$out/vbench" "$@"
