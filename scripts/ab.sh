#!/usr/bin/env bash
# A/B speed claims on the end-to-end benchmark: the working tree against
# a parent revision, in alternating pairs.
#
#   scripts/ab.sh PARENT_REV WORKLOAD... [--seeds A,B,...] [--pairs N]
#       [--trace METRIC,...] [--work DIR] | tee -a results/NAME_runs.txt
#
# Builds two trees, each into its own CARGO_TARGET_DIR, so that neither
# build touches the checkout (building benchmark/ rewrites its
# Cargo.lock): `git archive PARENT_REV`, and a copy of the working tree
# as it is on disk (tracked and untracked files, not ignored ones). Then,
# for every seed (default 20220530) and workload, it runs N pairs
# (default 10) of `benchmark/run.sh --workload W --seed SEED --seconds 20`,
# the same length on both sides: the parent first in even pairs, the
# change first in odd ones, so that a host that drifts over the session
# weighs on both sides alike.
#
# A run's row holds every end-to-end metric the benchmark prints,
# failed/attempted operations, and the pair's control row: before each
# pair the `inflate_control` example (built from the working tree) times
# two bare threads against one inflating fixed gzip blobs, about 1.9
# where both vCPUs are there. With --trace the runs are traced
# (`--trace 1`) and the row holds the per-layer metrics named instead.
# After each workload and seed comes one line per metric: the parent's
# and the change's median (first-third quartile), the change against the
# parent, in how many pairs the change was ahead (in the metric's own
# direction; a tie is not ahead), the parent's IQR, and a verdict:
# `equal` (every run of both sides the same value), `resolved` (the
# medians lie further apart than the parent's IQR) or `unresolved`.
#
# The log goes to standard output and build messages to standard error,
# so the run logs in results/ are standard output appended with `tee -a`.
# --work DIR keeps the trees and their builds in DIR, so that a second
# call only rebuilds what changed; without it they go to a temporary
# directory that is removed on exit.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
    sed -n '2,/^set -euo/p' "${BASH_SOURCE[0]}" | sed -e '$d' -e 's/^# \{0,1\}//' >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
parent_rev="$1"
shift
workloads=()
seeds="20220530"
pairs=10
trace=""
work=""
while [[ $# -gt 0 ]]; do
    case "$1" in
    --seeds | --pairs | --trace | --work)
        [[ $# -ge 2 ]] || usage
        case "$1" in
        --seeds) seeds="$2" ;;
        --pairs) pairs="$2" ;;
        --trace) trace="$2" ;;
        --work) work="$2" ;;
        esac
        shift 2
        ;;
    -*) usage ;;
    *)
        workloads+=("$1")
        shift
        ;;
    esac
done
[[ ${#workloads[@]} -gt 0 && "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
parent_sha="$(git -C "$repo" rev-parse --short "$parent_rev^{commit}")"
change_id="$(git -C "$repo" describe --always --dirty)"

if [[ -z "$work" ]]; then
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work"
work="$(cd "$work" && pwd)"

# The two trees, fresh each call; their target dirs persist in $work.
rm -rf "$work/parent" "$work/change"
mkdir -p "$work/parent" "$work/change"
git -C "$repo" archive "$parent_sha" | tar -x -C "$work/parent"
git -C "$repo" ls-files -z --cached --others --exclude-standard |
    (cd "$repo" && tar --null --ignore-failed-read -T - -cf - 2>/dev/null) |
    tar -x -C "$work/change"
for side in parent change; do
    echo "ab.sh: building the $side's benchmark" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" --target-dir "$work/target-$side"
done
echo "ab.sh: building the control row" >&2
cargo build --release --offline --quiet --example inflate_control \
    --manifest-path "$work/change/Cargo.toml" --target-dir "$work/target-control"
control_bin="$work/target-control/release/examples/inflate_control"

traced=0
[[ -n "$trace" ]] && traced=1
echo
echo "# scripts/ab.sh $parent_rev ${workloads[*]} --seeds $seeds --pairs $pairs${trace:+ --trace $trace}"
echo "# parent $parent_sha, change $change_id; 20 s runs; $(nproc) vCPUs, $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//'); $(date -u '+%Y-%m-%d %H:%M UTC')"
echo "# even pairs run the parent first, odd pairs the change first"

# One benchmark run: prints "metric value better" lines, then
# "failed/attempted". Exits only if the run gave no result at all.
run_one() {
    local side="$1" workload="$2" seed="$3" out
    out="$(CARGO_TARGET_DIR="$work/target-$side" bash "$work/$side/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 20 --trace "$traced" \
        2>"$work/stderr")" || true
    if ! grep -q '"attempted"' <<<"$out"; then
        cat "$work/stderr" >&2
        echo "ab.sh: the $side's run of $workload (seed $seed) gave no result" >&2
        exit 1
    fi
    awk '/^  [a-z0-9_.]+ +[-+0-9.eE]+ +[^ ]+ +\((lower|higher) is better\)$/ {
        better = $(NF - 2)
        sub(/^\(/, "", better)
        print $1, $2, better
    }' <<<"$out"
    tail -n 1 <<<"$out" | sed -E 's/.*"attempted":([0-9]+).*"failed":([0-9]+).*/failed \2\/\1/'
}

summarise() {
    awk -v metrics="$1" '
    function sorted(src, n, dst,   i, j, v) {
        for (i = 1; i <= n; i++) {
            v = src[i]
            for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
            dst[j + 1] = v
        }
    }
    # Quantile p of the n sorted values in v, interpolated between ranks.
    function q(v, n, p,   h, lo) {
        h = (n - 1) * p
        lo = int(h)
        return lo + 1 >= n ? v[n] : v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1])
    }
    function fmt(x,   a) {
        a = x < 0 ? -x : x
        return sprintf(a >= 1 ? "%.3f" : "%.6f", x)
    }
    { val[$1, $2, $3] = $4 + 0; dir[$3] = $5; if ($1 + 1 > n) n = $1 + 1 }
    END {
        k = split(metrics, name, " ")
        printf "  %-30s %-6s %-28s %-28s %9s %7s %12s  %s\n", "metric", "better", \
            "parent median (q1-q3)", "change median (q1-q3)", "change", "ahead", "parent IQR", "verdict"
        for (m = 1; m <= k; m++) {
            mt = name[m]
            ahead = 0
            same = 1
            for (i = 0; i < n; i++) {
                p[i + 1] = val[i, "parent", mt]
                c[i + 1] = val[i, "change", mt]
                if (p[i + 1] != c[i + 1] || p[i + 1] != p[1]) same = 0
                if (dir[mt] == "higher" ? c[i + 1] > p[i + 1] : c[i + 1] < p[i + 1]) ahead++
            }
            sorted(p, n, ps)
            sorted(c, n, cs)
            pm = q(ps, n, 0.5)
            cm = q(cs, n, 0.5)
            iqr = q(ps, n, 0.75) - q(ps, n, 0.25)
            diff = cm - pm
            rel = pm != 0 ? sprintf("%+.1f %%", 100 * diff / (pm < 0 ? -pm : pm)) : "n/a"
            verdict = same ? "equal" : (diff < 0 ? -diff : diff) > iqr ? "resolved" : "unresolved"
            printf "  %-30s %-6s %-28s %-28s %9s %7s %12s  %s\n", mt, dir[mt], \
                fmt(pm) " (" fmt(q(ps, n, 0.25)) "-" fmt(q(ps, n, 0.75)) ")", \
                fmt(cm) " (" fmt(q(cs, n, 0.25)) "-" fmt(q(cs, n, 0.75)) ")", \
                rel, ahead "/" n, fmt(iqr), verdict
        }
    }' "$work/rows"
}

IFS=',' read -r -a seed_list <<<"$seeds"
for seed in "${seed_list[@]}"; do
    for workload in "${workloads[@]}"; do
        : >"$work/rows"
        low_control=""
        columns=""
        [[ -n "$trace" ]] && columns="${trace//,/ }"
        echo
        echo "== $workload, seed $seed${trace:+, traced (--trace 1)}"
        for ((pair = 0; pair < pairs; pair++)); do
            order=(parent change)
            ((pair % 2 == 1)) && order=(change parent)
            control="$("$control_bin" | awk '{ print $2 }')"
            if awk -v c="$control" 'BEGIN { exit !(c < 1.7) }'; then
                low_control+=" $pair ($control)"
            fi
            for side in "${order[@]}"; do
                result="$(run_one "$side" "$workload" "$seed")"
                if [[ -z "$columns" ]]; then
                    columns="$(awk '$1 != "failed" { printf "%s ", $1 }' <<<"$result")"
                    columns="${columns% }"
                fi
                if ((pair == 0)) && [[ "$side" == "${order[0]}" ]]; then
                    echo "$(printf '%4s %-6s' pair side)$(printf ' %18s' $columns) failed/attempted control"
                fi
                row="$(printf '%4d %-6s' "$pair" "$side")"
                for metric in $columns; do
                    line="$(awk -v m="$metric" '$1 == m' <<<"$result")"
                    value="$(awk '{ print $2 }' <<<"$line")"
                    row+="$(printf ' %18s' "${value:-nan}")"
                    [[ -n "$line" ]] && echo "$pair $side $line" >>"$work/rows"
                done
                echo "$row $(awk '$1 == "failed" { print $2 }' <<<"$result") $control"
            done
        done
        summarise "$columns"
        echo "  pairs with the control under 1.7 (second vCPU away):${low_control:- none}"
    done
done
