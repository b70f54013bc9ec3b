#!/usr/bin/env bash
# Paired perfbench comparison of this checkout against a base commit.
#
#     tools/perfbench_pairs.sh [--seconds S] [--seed N] [--workload NAME]...
#                              BASE_REF [PAIRS]
#
# Checks BASE_REF out in a temporary git worktree. Then, for every
# workload in BENCHMARK.json (or each --workload given), runs
# perfbench/run.py for S seconds (default 3) at seed N (default 1) on
# both sides PAIRS times (default 5), alternating: the base first in
# odd pairs, the change first in even ones. The change side is this
# checkout's working tree, uncommitted edits included.
# perfbench/compare.py then gives a verdict for every workload x
# end-to-end metric.
#
# compare.py rates a metric "improved" only from 10 pairs up, so a
# claimed gain needs PAIRS >= 10; the default 5 can only show a
# regression. The benchmark itself runs 25-second runs, and a claim
# should hold at a second seed too: --seconds 25 --seed 2.
#
# Exits nonzero if any verdict is "regressed", or if any change-side
# run failed a check. At seed 1 the checks include the result digest
# recorded in perfbench/digests.json, so this is also the digest gate.
#
# The records (base.jsonl, change.jsonl) and the comparison
# (compare.txt) are left in perfbench-pairs/ at the checkout root.
# Each side builds the simulator once, into its own .bench_build/.
set -euo pipefail

usage() {
    echo "usage: $0 [--seconds S] [--seed N] [--workload NAME]..." \
        "BASE_REF [PAIRS]" >&2
    exit 2
}

SECONDS_PER_RUN=3
SEED=1
chosen=()
while [ $# -gt 0 ]; do
    case "$1" in
      --seconds)
        [ $# -ge 2 ] && [[ $2 =~ ^[0-9]+([.][0-9]+)?$ ]] || usage
        SECONDS_PER_RUN=$2
        shift 2
        ;;
      --seed)
        [ $# -ge 2 ] && [[ $2 =~ ^[0-9]+$ ]] || usage
        SEED=$2
        shift 2
        ;;
      --workload)
        [ $# -ge 2 ] || usage
        chosen+=("$2")
        shift 2
        ;;
      -*) usage ;;
      *) break ;;
    esac
done
if [ $# -lt 1 ] || [ $# -gt 2 ] || ! [[ ${2:-5} =~ ^[1-9][0-9]*$ ]]; then
    usage
fi
PAIRS=${2:-5}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
out="$root/perfbench-pairs"
all_workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json")
workloads=$all_workloads
if [ ${#chosen[@]} -gt 0 ]; then
    for w in "${chosen[@]}"; do
        if ! [[ " $all_workloads " == *" $w "* ]]; then
            echo "$0: unknown workload $w (have: $all_workloads)" >&2
            exit 2
        fi
    done
    workloads="${chosen[*]}"
fi

tmp=$(mktemp -d)
base="$tmp/base"
cleanup() {
    git -C "$root" worktree remove --force "$base" 2>/dev/null || true
    rm -rf "$tmp"
    git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$base" "$base_rev"

mkdir -p "$out"
rm -f "$out/base.jsonl" "$out/change.jsonl" "$out/compare.txt"

# run CHECKOUT RECORD_FILE WORKLOAD: one run, its failures and verdict.
run() {
    python3 "$1/perfbench/run.py" --workload "$3" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace 0 --out "$2" |
        grep -E '^FAILED|^\{"correct"' | cut -c 1-160
}

echo "perfbench pairs: base $base_rev vs working tree of $root" \
    "(seed $SEED, ${SECONDS_PER_RUN} s runs)"
for w in $workloads; do
    for ((p = 1; p <= PAIRS; p++)); do
        echo "== $w pair $p/$PAIRS"
        if ((p % 2 == 1)); then
            run "$base" "$out/base.jsonl" "$w"
            run "$root" "$out/change.jsonl" "$w"
        else
            run "$root" "$out/change.jsonl" "$w"
            run "$base" "$out/base.jsonl" "$w"
        fi
    done
done

python3 "$root/perfbench/compare.py" "$out/base.jsonl" \
    "$out/change.jsonl" | tee "$out/compare.txt"

status=0
regressed=$(awk '$NF == "regressed"' "$out/compare.txt")
if [ -n "$regressed" ]; then
    echo "perfbench pairs: regressed against $base_rev:"
    printf '%s\n' "$regressed"
    status=1
fi
if ! python3 - "$out/change.jsonl" <<'EOF'; then
import json, sys
bad = [r for r in map(json.loads, open(sys.argv[1])) if r["failed"] > 0]
for r in bad:
    print(f"perfbench pairs: change-side {r['workload']} run failed "
          f"{r['failed']} of {r['attempted']} checks")
sys.exit(1 if bad else 0)
EOF
    status=1
fi
[ "$status" -eq 0 ] && echo "perfbench pairs: no regression"
exit "$status"
