#!/usr/bin/env bash
# Builds the repo with sanitizers and runs tests under them.
# Intended as the CI sanitizer jobs; usable locally the same way:
#
#   tools/run_sanitizers.sh [mode] [build-dir] [ctest-args...]
#
# Modes:
#   asan  (default)  ASan+UBSan over the full tier-1 suite
#   tsan             ThreadSanitizer over the concurrency-heavy tests
#                    (thread pool, batched sweep, serve daemon, router +
#                    retry/breaker layer incl. the TCP suites, and the
#                    shared front end under both owners). OCPS_THREADS
#                    is forced to 4 so the pool actually runs multi-threaded
#                    even on single-core CI runners — without it TSan
#                    coverage of the sweep path would be vacuous there.
#
# The first argument is optional for backward compatibility: anything that
# is not a known mode is treated as the build dir for asan mode.
#
# Exits non-zero on any build failure, test failure, or sanitizer report.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

mode="asan"
case "${1:-}" in
  asan|tsan)
    mode="$1"
    shift
    ;;
esac
build_dir="${1:-$repo_root/build-sanitize-$mode}"
shift || true

case "$mode" in
  asan)
    sanitize="address,undefined"
    ;;
  tsan)
    sanitize="thread"
    ;;
esac

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOCPS_SANITIZE="$sanitize"
cmake --build "$build_dir" -j "$(nproc)"

if [[ "$mode" == "tsan" ]]; then
  # halt_on_error: a data-race report fails the run instead of just logging.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  # Force real pool parallelism regardless of the runner's core count.
  export OCPS_THREADS=4
  ctest --test-dir "$build_dir" --output-on-failure -j 1 \
    -R 'ThreadPool|BatchSweep|Serve|Router|Frontend' "$@"
else
  # halt_on_error makes UBSan findings fail the run instead of just logging.
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  export ASAN_OPTIONS="detect_leaks=1"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "$@"
fi
