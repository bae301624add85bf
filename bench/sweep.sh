#!/usr/bin/env sh
# Core-count scaling sweep matrix runner.
#
# Wraps `threadsbench -baseline/-json`, which collect the scaling curves
# along with the scalar metrics, with the environment control that makes
# scaling curves comparable run to run: pinning to a fixed CPU set when
# taskset is available (so the OS does not migrate the benchmark across
# sockets mid-sample), and a fixed GOGC (so GC pacing does not drift with
# heap-size luck between runs).
#
# Usage:
#   bench/sweep.sh                       # sweep, compare against BENCH_1.json
#   bench/sweep.sh -json BENCH_1.json    # regenerate the committed baseline
#   CORES=1,2,4,8 SAMPLES=5 bench/sweep.sh -timed
#   OUT=sweep.json bench/sweep.sh -json "$OUT" -baseline BENCH_1.json
#
# Environment:
#   CORES    comma-separated GOMAXPROCS values (default: 1,2,4,... to nproc)
#   SAMPLES  runs per core count, best kept (default: 3)
#   GOGC     garbage-collector target percent (default: 100, pinned)
#   PIN      CPU list for taskset, e.g. 0-7 (default: all; set to pin)
#
# Any extra arguments are passed through to threadsbench, after the sweep
# flags — so a -json/-baseline/-timed argument wins over the default.
set -eu

cd "$(dirname "$0")/.."

ncpu=$( (command -v nproc >/dev/null 2>&1 && nproc) || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ -z "${CORES:-}" ]; then
    CORES=""
    k=1
    while [ "$k" -lt "$ncpu" ]; do
        CORES="${CORES:+$CORES,}$k"
        k=$((k * 2))
    done
    CORES="${CORES:+$CORES,}$ncpu"
fi
SAMPLES="${SAMPLES:-3}"
export GOGC="${GOGC:-100}"

runner=""
if [ -n "${PIN:-}" ] && command -v taskset >/dev/null 2>&1; then
    runner="taskset -c $PIN"
    echo "sweep: pinned to CPUs $PIN" >&2
fi

echo "sweep: cores $CORES x $SAMPLES samples on $ncpu-CPU host (GOGC=$GOGC)" >&2

# Default action: enforce the committed curves. Overridden if the caller
# passes their own -json/-baseline.
action="-baseline BENCH_1.json"
for arg in "$@"; do
    case "$arg" in
    -json|-baseline) action="" ;;
    esac
done

# shellcheck disable=SC2086 # runner and action are intentionally word-split
exec $runner go run ./cmd/threadsbench -cores "$CORES" -samples "$SAMPLES" $action "$@"
