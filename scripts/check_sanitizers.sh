#!/usr/bin/env bash
# Sanitizer sweep over the runtime layer (DUALSIM_SANITIZE CMake option):
#   1. AddressSanitizer build running the full test suite.
#   2. ThreadSanitizer build running the concurrency-sensitive suites
#      (engine, buffer pool, thread pool, runtime, concurrency, and the
#      work counters checked across thread counts).
# Each sanitizer gets its own build tree so switching is incremental.
#
# Usage: scripts/check_sanitizers.sh [address|thread|undefined ...]
#   (no arguments = address followed by thread)
#
# Exit codes: 0 clean, 2 usage, 3 build failed, 4 tests failed.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS=("$@")
[ ${#SANITIZERS[@]} -eq 0 ] && SANITIZERS=(address thread)

# TSan over the whole suite is slow; restrict it to the suites that
# exercise cross-thread engine/runtime/pool state.
TSAN_FILTER='Engine|BufferPool|ThreadPool|TaskGroup|Runtime|Concurrency|Fault|DifferentialFuzz|Service|Coord|Incr|WorkCounters'

for san in "${SANITIZERS[@]}"; do
  case "$san" in
    address|thread|undefined) ;;
    *)
      echo "usage: $0 [address|thread|undefined ...]" >&2
      exit 2
      ;;
  esac
  build="build-${san}san"
  echo "=== ${san} sanitizer (${build}) ==="
  if ! cmake -B "$build" -DDUALSIM_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo ||
     ! cmake --build "$build" -j "$(nproc)"; then
    echo "BUILD FAILED (${san})" >&2
    exit 3
  fi
  if [ "$san" = thread ]; then
    if ! TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir "$build" --output-on-failure -R "$TSAN_FILTER"; then
      echo "TESTS FAILED (${san})" >&2
      exit 4
    fi
  else
    if ! ctest --test-dir "$build" --output-on-failure -j "$(nproc)"; then
      echo "TESTS FAILED (${san})" >&2
      exit 4
    fi
  fi
  echo "=== ${san}: clean ==="
done
