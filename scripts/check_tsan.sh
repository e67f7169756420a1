#!/usr/bin/env bash
# Builds the threaded suites under ThreadSanitizer and runs them.
#
# Four places run host threads: the launch engine's chunk pool (parallel
# chunks and fleet devices, docs/MODEL.md §5a/§9), the autotuner's sweeps,
# the ServingDriver's drain workers (§8), and trace replay's fast-forward
# split, where a launch on a pool worker resumes a large block's lanes
# over the pool's idle workers (§5b). The ThreadPool.* tests drive the
# pool's nested-job protocol directly; the determinism-labeled tests drive
# every launch mode (chunked, sampled, fleet, replay, warm plans, the
# split on a pool worker) and the autotune sweeps; the Serving.* tests
# drain requests across several worker counts over a shared plan store. A
# clean TSan run over all three covers the pool's synchronization protocol
# and every piece of state those threads share.
#
#   scripts/check_tsan.sh [build-dir]    # default: build-tsan
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DKCONV_SANITIZE=thread
cmake --build "$BUILD_DIR" --target kconv_common_test \
  kconv_determinism_test kconv_serve_test -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -R '^ThreadPool\.' --output-on-failure
ctest --test-dir "$BUILD_DIR" -L determinism --output-on-failure
ctest --test-dir "$BUILD_DIR" -R '^Serving\.' --output-on-failure
