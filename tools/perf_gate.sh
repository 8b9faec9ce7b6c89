#!/bin/sh
# Perf-regression gate, runnable outside ctest:
#
#   tools/perf_gate.sh [BUILD_DIR]
#
# Re-measures the curated benchmark subset of each bench binary that has a
# committed baseline and compares GFLOP/s / wall time against it
# (bench/perf_check.hpp). Exit 0 = all pass, 1 = regression beyond the
# tolerance (LAPACK90_PERF_GATE_TOL, default 10%), 77 = nothing gated
# (another ISA or worker count, or LAPACK90_PERF_GATE=off).
set -u

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}

fail=0
ran=0
for name in gemm drivers; do
  bin="$build/bench/bench_$name"
  baseline="$repo/BENCH_$name.json"
  if [ ! -x "$bin" ]; then
    echo "perf_gate: $bin not built, skipping" >&2
    continue
  fi
  if [ ! -f "$baseline" ]; then
    echo "perf_gate: no baseline $baseline, skipping" >&2
    continue
  fi
  "$bin" --check "$baseline"
  rc=$?
  if [ "$rc" -eq 0 ]; then
    ran=$((ran + 1))
  elif [ "$rc" -eq 77 ]; then
    echo "perf_gate: bench_$name skipped (rc 77)"
  else
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
if [ "$ran" -eq 0 ]; then
  exit 77
fi
exit 0
