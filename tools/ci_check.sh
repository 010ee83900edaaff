#!/usr/bin/env bash
# One-command tier-1 verification (docs/CORRECTNESS.md):
#   1. default preset: configure, build, check that no AVX2 hot-kernel
#      object defines Volume<float>::sample, full ctest (includes ifet_lint
#      and the lint fixture regressions), then the shape of the committed
#      benchmark trajectory (BENCH_<workload>.json)
#   2. fault injection: the fault_injection_test binary, then ifet_tool
#      track over a fixture with injected faults, under --fail-policy=skip
#      (retries happened, the run exits cleanly) and --fail-policy=nearest
#      (the quarantined step is reported substituted, never skipped)
#      (docs/ROBUSTNESS.md)
#   3. hot-path lint: the cross-TU callgraph pass (ifet_lint --only=hot-path)
#      over src/ with the checked-in baseline, publishing the JSON report
#      as build/ci_hot_path_lint.json (docs/STATIC_ANALYSIS.md)
#   3b. determinism lint: the IFET_DETERMINISTIC contract pass
#      (ifet_lint --only=det) over src/, publishing
#      build/ci_determinism_lint.json (docs/STATIC_ANALYSIS.md)
#   4. asan-ubsan preset: configure, build, full ctest under ASan+UBSan
#      with IFET_DEBUG_ASSERT checks and the OrderedMutex lock-order
#      validator on
#   5. tsan preset: build + run, under ThreadSanitizer, the tier-1 suites
#      that race threads: the stress detectors (CacheManager/Prefetcher,
#      fault storm, thread pool, multi-tenant server with its overload
#      flood), the AllocGuard zero-allocation contracts (FlatMlp
#      forward_batch, Raycaster::render_rows, CacheManager hits), the
#      ReplayCheck determinism suites (classifier, render, tracker), the
#      brick-skip bitwise equivalence, the shared-tier server and
#      streaming suites, and the overload and fault-injection suites
#      (docs/CORRECTNESS.md)
#   6. thread-safety: clang build with -Wthread-safety promoted to errors
#      over the IFET_GUARDED_BY annotations (docs/STATIC_ANALYSIS.md);
#      skips if clang is not installed
#   7. clang-tidy over the hardened directories (skips if not installed)
#
# Each stage records pass/fail/skip and the script prints a summary table
# before exiting; the exit status is non-zero if ANY stage failed, so one
# broken stage no longer hides the results of the others.
#
# Usage: tools/ci_check.sh          # everything
#        JOBS=8 tools/ci_check.sh   # override build parallelism
#        SKIP_ASAN=1 tools/ci_check.sh   # fast local loop, default only
#        SKIP_FAULT=1 tools/ci_check.sh  # skip the fault-injection stage
#        SKIP_TSAN=1 tools/ci_check.sh   # skip the TSan stress stage
#        SKIP_THREAD_SAFETY=1 tools/ci_check.sh  # skip the clang stage

set -uo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
cd "$ROOT"

STAGE_NAMES=()
STAGE_RESULTS=()
FAILED=0

record() {  # record <name> <pass|FAIL|skip>
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("$2")
  if [ "$2" = "FAIL" ]; then FAILED=1; fi
}

run_stage() {  # run_stage <name> <command...>
  local name="$1"
  shift
  echo "== ci_check stage: $name =="
  if "$@"; then
    record "$name" "pass"
  else
    record "$name" "FAIL"
  fi
}

stage_default() {
  cmake --preset default &&
    cmake --build --preset default -j "$JOBS" &&
    check_hot_kernel_objects &&
    ctest --preset default -j "$JOBS" &&
    check_bench_trajectory
}

check_hot_kernel_objects() {
  # The objects built with IFET_HOT_KERNEL_OPTIONS (-mavx2) must not define
  # Volume<float>::sample: the linker keeps the first copy it meets, so an
  # AVX2 copy there would become the one every caller in the program runs.
  # volume.cpp defines the one portable copy.
  local objects found=0 obj
  objects=$(find "$ROOT/build" -name ray_packet.cpp.o -o \
    -name feature_vector.cpp.o -o -name flat_mlp.cpp.o)
  if [ "$(echo "$objects" | grep -c .)" -ne 3 ]; then
    echo "hot-kernel objects: expected 3 under build/, found: $objects"
    return 1
  fi
  for obj in $objects; do
    if nm -C --defined-only "$obj" | grep -q 'ifet::Volume<float>::sample'; then
      echo "hot-kernel object defines ifet::Volume<float>::sample: $obj"
      found=1
    fi
  done
  return "$found"
}

check_bench_trajectory() {
  # Each BENCH_<workload>.json at the root is a JSON array with one point
  # per perfbench run; `result` is the JSON line perfbench/run.py printed.
  # The untraced points of one PR must carry the same metric names, so
  # they stay comparable with each other, and those of the file's newest
  # PR exactly the end-to-end names BENCHMARK.json lists now. Older points
  # keep the names they were measured with: the files are append-only.
  python3 - "$ROOT" <<'PY'
import glob, json, os, sys

root = sys.argv[1]
with open(os.path.join(root, "BENCHMARK.json")) as f:
    want = {m["name"] for m in json.load(f)["end_to_end"]}
keys = {"pr", "side", "commit", "seed", "seconds", "trace", "result"}
bad = []
for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
    name = os.path.basename(path)
    try:
        with open(path) as f:
            points = json.load(f)
    except ValueError as e:
        bad.append("%s: not JSON: %s" % (name, e))
        continue
    if not isinstance(points, list):
        bad.append("%s: not a JSON array" % name)
        continue
    names_of_pr = {}  # pr -> (index, metric names) of its first untraced point
    for i, point in enumerate(points):
        if not isinstance(point, dict) or not keys <= set(point):
            bad.append("%s[%d]: a point needs the keys %s"
                       % (name, i, sorted(keys)))
            continue
        if point["trace"] != 0:
            continue
        got = set(point["result"].get("metrics", {}))
        first, names = names_of_pr.setdefault(point["pr"], (i, got))
        if got != names:
            bad.append("%s[%d]: metrics %s differ from those of %s[%d], a "
                       "point of the same pr" % (name, i, sorted(got), name,
                                                 first))
    if names_of_pr:
        newest = max(names_of_pr)
        first, names = names_of_pr[newest]
        if names != want:
            bad.append("%s: pr %s's metrics %s differ from BENCHMARK.json's "
                       "end_to_end %s" % (name, newest, sorted(names),
                                          sorted(want)))
for line in bad:
    print("bench trajectory: " + line)
sys.exit(1 if bad else 0)
PY
}

stage_fault() {
  # Fault-injection pass (docs/ROBUSTNESS.md): the dedicated test binary,
  # then the CLI driven over a fixture with one transient fault per step
  # plus a permanently corrupt step under --fail-policy=skip. The run must
  # exit 0 AND report nonzero retries — a clean exit that never retried
  # would mean the schedule silently stopped injecting. The same track
  # under --fail-policy=nearest must report the step substituted: the
  # counters record the client's policy outcome, never a skip.
  local build_dir="$ROOT/build"
  local fixture="$build_dir/ci_fault_fixture.cvol"
  local track_args=(--seed=12,8,8 --band=0.4:1.0 --budget-mb=1 --lookahead=2
    --inject-faults=transient@all:1,corrupt@7 --max-retries=2 --backoff-ms=0)
  "$build_dir/tests/fault_injection_test" &&
    "$build_dir/tools/ifet_tool" gen --dataset=swirl --size=16 \
      --cvol="$fixture" &&
    "$build_dir/tools/ifet_tool" track "$fixture" "${track_args[@]}" \
      --fail-policy=skip >"$build_dir/ci_fault_track.out" 2>&1 &&
    grep -E 'faults: [1-9][0-9]* retries' "$build_dir/ci_fault_track.out" &&
    grep -E '1 quarantined' "$build_dir/ci_fault_track.out" &&
    "$build_dir/tools/ifet_tool" track "$fixture" "${track_args[@]}" \
      --fail-policy=nearest >"$build_dir/ci_fault_nearest.out" 2>&1 &&
    grep -E '[1-9][0-9]* substituted' "$build_dir/ci_fault_nearest.out" &&
    ! grep -E 'skipped' "$build_dir/ci_fault_nearest.out"
}

stage_hot_path_lint() {
  # Cross-TU hot-path escape analysis (docs/STATIC_ANALYSIS.md): the
  # callgraph pass over src/ against the checked-in baseline. The default
  # preset's ctest already gates on the all-pass text run; this stage
  # re-runs the hot-path family in JSON mode and leaves the report as a
  # build artifact for dashboards and baseline review.
  local build_dir="$ROOT/build"
  local artifact="$build_dir/ci_hot_path_lint.json"
  "$build_dir/tools/ifet_lint" --format=json --only=hot-path \
    --baseline="$ROOT/tools/lint_baseline.txt" "$ROOT/src" >"$artifact"
  local rc=$?
  echo "hot-path lint report: $artifact"
  cat "$artifact"
  return "$rc"
}

stage_determinism_lint() {
  # Determinism-contract escape analysis (docs/STATIC_ANALYSIS.md): the
  # det-* family over src/ against the same baseline, JSON report kept as
  # a build artifact. Exit bit 16 is the family's own, so this stage
  # fails independently of the hot-path stage.
  local build_dir="$ROOT/build"
  local artifact="$build_dir/ci_determinism_lint.json"
  "$build_dir/tools/ifet_lint" --format=json --only=det \
    --baseline="$ROOT/tools/lint_baseline.txt" "$ROOT/src" >"$artifact"
  local rc=$?
  echo "determinism lint report: $artifact"
  cat "$artifact"
  return "$rc"
}

stage_asan() {
  cmake --preset asan-ubsan &&
    cmake --build --preset asan-ubsan -j "$JOBS" &&
    ctest --preset asan-ubsan -j "$JOBS"
}

stage_tsan() {
  # The tier-1 suites whose contracts involve threads, rebuilt under TSan
  # so the same runs race the pool, the strands, the prefetcher and the
  # AllocGuard's atomics: stress detectors, allocation contracts, replay
  # checks across pool widths, skip-vs-scalar frames with the row pool
  # racing, both StreamedSequence constructors (private and shared tier)
  # including four readers racing one sequence's window, the overload
  # and fault suites, whose prefetch workers add into the tier counters,
  # and the run labeling, with six threads labeling one shared mask.
  local tests="stress_cache_manager_test stress_fault_storm_test \
stress_thread_pool_test stress_server_test flat_mlp_test \
classifier_digest_test stream_test server_test concurrency_regression_test \
render_test brick_index_test tracking_test overload_test fault_injection_test \
filters_components_test stress_region_grow_test"
  # shellcheck disable=SC2086
  cmake --preset tsan &&
    cmake --build --preset tsan -j "$JOBS" --target $tests &&
    ctest --preset tsan -j "$JOBS" -R "^($(echo $tests | tr ' ' '|'))\$"
}

stage_thread_safety() {
  # A dedicated build tree: the analysis only exists under clang, and the
  # default preset tree is configured for the host's default compiler.
  local build_dir="$ROOT/build-thread-safety"
  cmake -S "$ROOT" -B "$build_dir" \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DIFET_THREAD_SAFETY=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    cmake --build "$build_dir" -j "$JOBS"
}

run_stage "default preset (build + ctest)" stage_default
run_stage "hot-path lint (callgraph pass + JSON artifact)" stage_hot_path_lint
run_stage "determinism lint (det-* pass + JSON artifact)" stage_determinism_lint

if [ "${SKIP_FAULT:-0}" != "1" ]; then
  run_stage "fault injection (test + faulted CLI track)" stage_fault
else
  record "fault injection (test + faulted CLI track)" "skip"
fi

if [ "${SKIP_ASAN:-0}" != "1" ]; then
  run_stage "asan-ubsan preset (build + ctest)" stage_asan
else
  record "asan-ubsan preset (build + ctest)" "skip"
fi

if [ "${SKIP_TSAN:-0}" != "1" ]; then
  run_stage "tsan preset (concurrency stress)" stage_tsan
else
  record "tsan preset (concurrency stress)" "skip"
fi

if [ "${SKIP_THREAD_SAFETY:-0}" = "1" ]; then
  record "clang thread-safety analysis" "skip"
elif command -v clang++ >/dev/null 2>&1; then
  run_stage "clang thread-safety analysis" stage_thread_safety
else
  echo "== ci_check: clang++ not installed, thread-safety stage skipped =="
  record "clang thread-safety analysis" "skip"
fi

echo "== ci_check stage: clang-tidy (graceful skip when absent) =="
if "$ROOT/tools/run_clang_tidy.sh"; then
  record "clang-tidy" "pass"
else
  record "clang-tidy" "FAIL"
fi

echo
echo "== ci_check summary =="
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %-40s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done

if [ "$FAILED" != "0" ]; then
  echo "ci_check: FAILED"
  exit 1
fi
echo "ci_check: all green"
