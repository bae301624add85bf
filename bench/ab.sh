#!/usr/bin/env bash
# Interleaved A/B runs of the repository benchmark (perfbench), or of
# `go test -bench` benchmarks, between a git revision and the checkout.
#
# Usage:
#   bench/ab.sh REV WORKLOAD PAIRS SECONDS
#   bench/ab.sh HEAD~ pipeline 5 30
#   bench/ab.sh HEAD~ 'gotest:.:E12_Storm8$' 15 1s
#
# REV ("base") is checked out with `git worktree` under .bench_build/ab/;
# the checkout ("head") runs as it stands, uncommitted edits included. Each
# pair runs `python3 perfbench/run.py --workload WORKLOAD --seconds SECONDS
# --seed SEED --trace 0` once per side, and the side that runs first
# alternates ABBA (base-head, head-base, base-head, ...), so drift over the
# session falls on both sides alike. Every run's JSON result line is
# appended to the .jsonl file, wrapped with its side, pair and revision.
# The summary starts with a host line (CPU model, nproc, go version); then,
# per end-to-end metric of BENCHMARK.json, it prints both medians, both
# min-max ranges, the ratio head/base of the medians, and in how many pairs
# head beat base.
#
# A WORKLOAD of the form gotest:PKG:REGEXP runs `go test -bench REGEXP
# -cpu 1,2` in the package directory PKG (relative to the repository root,
# such as . or ./internal/core) instead, and SECONDS is its benchtime (1s,
# 300000x). Each side's test binary is built once, and the pairs alternate
# ABBA as above. Every Benchmark line a run prints is one sample of that
# benchmark at that core count: the .jsonl record holds it as a metric
# named BenchmarkNAME-CORES, in ns/op, lower is better, and the summary
# prints those metrics as it prints perfbench's. The raw lines are also
# appended to a .txt file beside the .jsonl, under "session:" and "side:"
# lines, so `benchstat -col side FILE` reads it (one table per session).
#
# Environment:
#   SEED    perfbench seed (default 1)
#   AB_OUT  the .jsonl file (default .bench_build/ab/WORKLOAD.jsonl, or
#           .bench_build/ab/gotest.jsonl for gotest runs)
#
# The worktree stays for the next call; `git worktree remove --force
# .bench_build/ab/<hash>` deletes it. Needs bash, git, go and python3 only.
set -euo pipefail

if [ "$#" -ne 4 ]; then
    echo "usage: bench/ab.sh REV WORKLOAD PAIRS SECONDS" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4
case "$pairs" in '' | *[!0-9]* | 0)
    echo "ab: PAIRS must be a positive integer, got '$pairs'" >&2
    exit 2
    ;;
esac

cd "$(dirname "$0")/.."
root=$(pwd)
sha=$(git rev-parse --verify "$rev^{commit}")
abdir=$root/.bench_build/ab
wt=$abdir/${sha:0:12}
seed=${SEED:-1}
session=$(date -u +%Y-%m-%dT%H:%M:%SZ)
pkg=
case "$workload" in
gotest:*)
    spec=${workload#gotest:}
    pkg=${spec%%:*} regexp=${spec#*:}
    if [ "$pkg" = "$spec" ] || [ -z "$pkg" ] || [ -z "$regexp" ]; then
        echo "ab: a gotest WORKLOAD is gotest:PKG:REGEXP, got '$workload'" >&2
        exit 2
    fi
    out=${AB_OUT:-$abdir/gotest.jsonl}
    ;;
*) out=${AB_OUT:-$abdir/$workload.jsonl} ;;
esac
raw=${out%.jsonl}.txt
mkdir -p "$abdir" "$(dirname "$out")"

if [ ! -e "$wt/go.mod" ]; then
    git worktree add --detach "$wt" "$sha" >&2
fi
if [ -n "$pkg" ]; then
    (cd "$wt" && go test -c -o "$abdir/base.test" "$pkg") >&2
    go test -c -o "$abdir/head.test" "$pkg" >&2
fi

cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
host="host: ${cpu:-$(uname -m)}, nproc $(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN), $(go version | awk '{ print $3 }')"
echo "$host" >&2
if [ -n "$pkg" ]; then
    echo "ab: base $rev (${sha:0:12}) vs head $root, go test $pkg -bench '$regexp' -cpu 1,2, $pairs pairs x $seconds" >&2
else
    echo "ab: base $rev (${sha:0:12}) vs head $root, $workload, $pairs pairs x ${seconds}s, seed $seed" >&2
fi

run_side() { # side dir pair
    local side=$1 dir=$2 pair=$3 log rec
    log=$(mktemp "$abdir/run.XXXXXX")
    if [ -n "$pkg" ]; then
        (cd "$dir/$pkg" && "$abdir/$side.test" -test.run '^$' -test.bench "$regexp" \
            -test.benchtime "$seconds" -test.cpu 1,2 -test.timeout 1h)
    else
        (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
            --seconds "$seconds" --seed "$seed" --trace 0)
    fi >"$log" || {
        echo "ab: $side run of pair $pair failed; output in $log" >&2
        exit 1
    }
    if ! rec=$(python3 -c '
import json, re, sys
log, session, pair, side, rev, workload, seconds, seed = sys.argv[1:9]
lines = open(log).read().splitlines()
if workload.startswith("gotest:"):
    # go test names a benchmark run at N cores BenchmarkNAME-N, or plain
    # BenchmarkNAME at 1.
    bench_re = re.compile(r"^(Benchmark\S*?)(?:-(\d+))?\s+\d+\s+(\S+) ns/op")
    metrics = {f"{m[1]}-{m[2] or 1}": {"value": float(m[3])}
               for m in map(bench_re.match, lines) if m}
    if not metrics:
        sys.exit(1)
    result = {"failed": 0, "correct": True, "metrics": metrics}
else:
    result, seconds = json.loads(lines[-1]), float(seconds)
print(json.dumps({"session": session, "pair": int(pair), "side": side, "rev": rev,
                  "workload": workload, "seconds": seconds, "seed": int(seed),
                  "result": result}))
' "$log" "$session" "$pair" "$side" "$( [ "$side" = base ] && echo "$sha" || echo checkout)" \
        "$workload" "$seconds" "$seed"); then
        echo "ab: $side run of pair $pair printed no result; output in $log" >&2
        exit 1
    fi
    if [ -n "$pkg" ]; then
        {
            echo "session: $session"
            echo "side: $side"
            grep -E '^((goos|goarch|pkg|cpu): |Benchmark)' "$log"
        } >>"$raw"
    fi
    rm -f "$log"
    echo "$rec" >>"$out"
    echo "ab: pair $pair $side done" >&2
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run_side base "$wt" "$i"
        run_side head "$root" "$i"
    else
        run_side head "$root" "$i"
        run_side base "$wt" "$i"
    fi
done

echo "$host"
python3 - "$out" "$session" "$([ -n "$pkg" ] || echo "$root/BENCHMARK.json")" <<'EOF'
import json, statistics, sys

path, session, bench = sys.argv[1:4]
runs = {}
for raw in open(path):
    rec = json.loads(raw)
    if rec.get("session") == session:
        runs.setdefault(rec["pair"], {})[rec["side"]] = rec["result"]
pairs = [p for p in sorted(runs) if len(runs[p]) == 2]
n = len(pairs)
failed = {s: sum(runs[p][s]["failed"] for p in pairs) for s in ("base", "head")}
wrong = {s: sum(not runs[p][s]["correct"] for p in pairs) for s in ("base", "head")}
print(f"{n} pairs; failed ops base {failed['base']}, head {failed['head']}; "
      f"incorrect runs base {wrong['base']}, head {wrong['head']}")
if bench:  # perfbench: the end-to-end metrics of BENCHMARK.json
    metrics = [(m["name"], m["better"] == "higher") for m in json.load(open(bench))["end_to_end"]]
else:  # gotest: ns/op of every benchmark at every core count
    metrics = [(name, False) for name in dict.fromkeys(
        name for p in pairs for s in ("base", "head") for name in runs[p][s]["metrics"])]
w = max([18] + [len(name) for name, _ in metrics])
print(f"{'metric':<{w}} {'base median':>11} {'base min-max':>21} {'head median':>11} "
      f"{'head min-max':>21} {'head/base':>9} {'head wins':>9}")
for name, higher in metrics:
    if not all(name in runs[p][s]["metrics"] for p in pairs for s in ("base", "head")):
        continue
    v = {s: [runs[p][s]["metrics"][name]["value"] for p in pairs] for s in ("base", "head")}
    if not any(v["base"]) and not any(v["head"]):
        continue
    med = {s: statistics.median(v[s]) for s in v}
    wins = sum((h > b) if higher else (h < b) for b, h in zip(v["base"], v["head"]))
    ratio = med["head"] / med["base"] if med["base"] else float("nan")
    span = {s: f"{min(v[s]):.4g}-{max(v[s]):.4g}" for s in v}
    print(f"{name:<{w}} {med['base']:>11.4g} {span['base']:>21} {med['head']:>11.4g} "
          f"{span['head']:>21} {ratio:>9.3f} {wins:>7}/{n}")
EOF
