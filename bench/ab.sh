#!/usr/bin/env bash
# Interleaved A/B runs of the repository benchmark (perfbench) between a git
# revision and the checkout.
#
# Usage:
#   bench/ab.sh REV WORKLOAD PAIRS SECONDS
#   bench/ab.sh HEAD~ pipeline 5 30
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
# Environment:
#   SEED    perfbench seed (default 1)
#   AB_OUT  the .jsonl file (default .bench_build/ab/WORKLOAD.jsonl)
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
out=${AB_OUT:-$abdir/$workload.jsonl}
seed=${SEED:-1}
session=$(date -u +%Y-%m-%dT%H:%M:%SZ)
mkdir -p "$abdir" "$(dirname "$out")"

if [ ! -e "$wt/go.mod" ]; then
    git worktree add --detach "$wt" "$sha" >&2
fi

cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
host="host: ${cpu:-$(uname -m)}, nproc $(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN), $(go version | awk '{ print $3 }')"
echo "$host" >&2
echo "ab: base $rev (${sha:0:12}) vs head $root, $workload, $pairs pairs x ${seconds}s, seed $seed" >&2

run_side() { # side dir pair
    local side=$1 dir=$2 pair=$3 log line
    log=$(mktemp "$abdir/run.XXXXXX")
    if ! (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
        --seconds "$seconds" --seed "$seed" --trace 0) >"$log"; then
        echo "ab: $side run of pair $pair failed; output in $log" >&2
        exit 1
    fi
    line=$(tail -n 1 "$log")
    if ! rec=$(AB_LINE=$line python3 -c '
import json, os, sys
res = json.loads(os.environ["AB_LINE"])
print(json.dumps({"session": sys.argv[1], "pair": int(sys.argv[2]), "side": sys.argv[3],
                  "rev": sys.argv[4], "workload": sys.argv[5], "seconds": float(sys.argv[6]),
                  "seed": int(sys.argv[7]), "result": res}))
' "$session" "$pair" "$side" "$( [ "$side" = base ] && echo "$sha" || echo checkout)" \
        "$workload" "$seconds" "$seed"); then
        echo "ab: $side run of pair $pair printed no JSON result; output in $log" >&2
        exit 1
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
python3 - "$out" "$session" "$root/BENCHMARK.json" <<'EOF'
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
print(f"{'metric':<18} {'base median':>11} {'base min-max':>21} {'head median':>11} "
      f"{'head min-max':>21} {'head/base':>9} {'head wins':>9}")
for m in json.load(open(bench))["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    if not all(name in runs[p][s]["metrics"] for p in pairs for s in ("base", "head")):
        continue
    v = {s: [runs[p][s]["metrics"][name]["value"] for p in pairs] for s in ("base", "head")}
    if not any(v["base"]) and not any(v["head"]):
        continue
    med = {s: statistics.median(v[s]) for s in v}
    wins = sum((h > b) if higher else (h < b) for b, h in zip(v["base"], v["head"]))
    ratio = med["head"] / med["base"] if med["base"] else float("nan")
    span = {s: f"{min(v[s]):.4g}-{max(v[s]):.4g}" for s in v}
    print(f"{name:<18} {med['base']:>11.4g} {span['base']:>21} {med['head']:>11.4g} "
          f"{span['head']:>21} {ratio:>9.3f} {wins:>7}/{n}")
EOF
