#!/usr/bin/env bash
# Builds everything, runs the full test suite, then regenerates every table
# and figure of the paper (bench_output.txt) — the repository's one-button
# reproduction script.
#
# Usage: scripts/run_all.sh [--skip-bench] [--sanitize]
#   --skip-bench  build + test only; skip the (slow) benchmark sweep.
#   --sanitize    additionally run scripts/check_sanitizers.sh (ASan full
#                 suite + TSan concurrency suites) before the benchmarks.
#
# Exit codes: 0 ok, 2 usage, 3 build failed, 4 tests failed, 5 bench failed
# (sanitizer runs propagate check_sanitizers.sh's codes: 3 build, 4 tests).
# 6 is retired (it was "requested I/O backend unavailable") and not reused.
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_BENCH=0
SANITIZE=0
for arg in "$@"; do
  case "$arg" in
    --skip-bench) SKIP_BENCH=1 ;;
    --sanitize) SANITIZE=1 ;;
    *)
      echo "usage: $0 [--skip-bench] [--sanitize]" >&2
      exit 2
      ;;
  esac
done

if ! cmake -B build -G Ninja || ! cmake --build build; then
  echo "BUILD FAILED" >&2
  exit 3
fi

if ! ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt; then
  echo "TESTS FAILED (see test_output.txt)" >&2
  exit 4
fi

if [ "$SANITIZE" -eq 1 ]; then
  scripts/check_sanitizers.sh  # propagates its own exit codes (3/4)
fi

if [ "$SKIP_BENCH" -eq 1 ]; then
  echo "Benchmarks skipped (--skip-bench)."
  exit 0
fi

# Run benches one by one and fail fast: a crashing bench must fail the
# script instead of leaving a silently truncated bench_output.txt.
: > bench_output.txt
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  echo "=== $(basename "$b") ===" | tee -a bench_output.txt
  if ! "$b" 2>&1 | tee -a bench_output.txt; then
    echo "BENCH FAILED: $b" >&2
    exit 5
  fi
done
