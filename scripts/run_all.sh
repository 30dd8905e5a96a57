#!/usr/bin/env bash
# Build everything, run the full test suite, regenerate every paper
# figure, and refresh BENCH_service.json, BENCH_fault.json,
# BENCH_ras.json, BENCH_compound.json, BENCH_cluster.json,
# BENCH_partition.json and BENCH_energy.json (the bench loop below
# runs bench_service_availability, fault_campaign_main,
# ras_campaign_main, bench_compound_fault, bench_cluster,
# bench_partition and bench_energy with their default full-size
# arguments from the repo root), teeing the transcripts the
# repository ships with (test_output.txt / bench_output.txt).
#
# Usage: scripts/run_all.sh [-j N]
#   -j N   parallelism for the build, the test run and the campaign
#          benches (--threads N; results are digest-identical at any
#          thread count).
#
# pipefail matters: every stage tees into a transcript, and without
# it a failing ctest/bench exit status would be masked by tee's.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=2
while getopts "j:" opt; do
    case "$opt" in
    j) jobs=$OPTARG ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
    esac
done

# -j must be a strictly positive integer; zero, negatives, and junk
# would otherwise reach cmake/ctest (which reject them) or wrap into
# absurd worker counts. Fall back to one worker — results are
# digest-identical at any thread count, so this only costs wall-clock.
if ! [[ "$jobs" =~ ^[1-9][0-9]*$ ]]; then
    echo "warning: invalid -j '$jobs' (expected a positive integer);" \
         "falling back to 1 worker" >&2
    jobs=1
fi

cmake -B build -G Ninja
cmake --build build -j "$jobs"

ctest --test-dir build --output-on-failure -j "$jobs" 2>&1 \
    | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    echo "### $(basename "$b")" | tee -a bench_output.txt
    # The campaign benches fan seeded trials across a worker pool;
    # their merged results (digests included) are identical at any
    # thread count, so -j only changes wall-clock.
    case "$(basename "$b")" in
    fault_campaign_main | ras_campaign_main | bench_compound_fault | \
        bench_service_availability | bench_cluster | bench_partition | \
        bench_energy)
        "$b" --threads "$jobs" 2>&1 | tee -a bench_output.txt ;;
    *)
        "$b" 2>&1 | tee -a bench_output.txt ;;
    esac
    echo | tee -a bench_output.txt
done
