#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers.
#
# Usage: scripts/run_sanitizers.sh [asan|tsan|all] [ctest-regex]
#
#   asan — AddressSanitizer + UndefinedBehaviorSanitizer
#   tsan — ThreadSanitizer (the concurrency tests in
#          tests/ps/ps_concurrency_test.cc and
#          tests/net/message_bus_test.cc were written to be run under
#          this)
#   all  — both, in sequence (default)
#
# Each flavor gets its own build directory (build-asan/, build-tsan/) so
# the default build/ stays untouched. An optional second argument narrows
# the ctest run, e.g.:
#
#   scripts/run_sanitizers.sh tsan 'PsConcurrency|MessageBus'
set -euo pipefail

FLAVOR="${1:-all}"
FILTER="${2:-}"

run_flavor() {
  local name="$1" cmake_value="$2"
  local dir="build-${name}"
  echo "=== configuring ${name} (${cmake_value}) ==="
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHETPS_SANITIZE="$cmake_value" \
    -DHETPS_BUILD_BENCHMARKS=OFF \
    -DHETPS_BUILD_EXAMPLES=OFF
  echo "=== building ${name} ==="
  cmake --build "$dir" -j "$(nproc)"
  echo "=== testing ${name} ==="
  local args=(--output-on-failure --test-dir "$dir")
  [ -n "$FILTER" ] && args+=(-R "$FILTER")
  # Sanitized binaries are slow; serial ctest keeps timings sane and
  # report interleaving readable.
  ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1" \
  UBSAN_OPTIONS="print_stacktrace=1" \
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ctest "${args[@]}"
}

case "$FLAVOR" in
  asan) run_flavor asan address ;;
  tsan) run_flavor tsan thread ;;
  all)  run_flavor asan address; run_flavor tsan thread ;;
  *) echo "usage: $0 [asan|tsan|all] [ctest-regex]" >&2; exit 2 ;;
esac
