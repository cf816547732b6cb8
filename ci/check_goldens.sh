#!/usr/bin/env bash
# Golden-snapshot regression gate.
#
# Runs the reproduction driver (xlvm-repro), which writes one metrics
# report per sweep, and compares each report with its golden under
# tests/golden/ using xlvm-check-golden. Counters are deterministic for
# any --jobs, so a diff is a real behavior change: fix it, or, when the
# change is meant to move counters, rerun with --update and commit the
# new goldens. Reports and goldens must match name for name: a golden
# no sweep reports (stale) and a report with no golden both fail.
#
# Three passes, one xlvm-repro process each, in every tier mode: the
# default configuration; the sampling profiler armed (XLVM_PROFILE),
# whose reports must match except for its own "profiler" section; and
# the fault engine armed with a spec that can never fire, whose reports
# must match except for the engine's own telemetry (jit_robustness).
# --update runs the default pass only.
#
# --tier-mode MODE selects the JIT tier policy (tier2 = default). Other
# modes compare against tests/golden/<mode>/ and ignore the jit_tiers
# section, which the per-mode set pins itself. A missing per-mode set
# fails like any missing golden; --update regenerates it.
#
# Usage: ci/check_goldens.sh [build-dir] [--jobs N] [--tier-mode M] [--update]
set -euo pipefail

cd "$(dirname "$0")/.."

build=build
jobs=$(nproc)
update=""
tier_mode=tier2
while [ $# -gt 0 ]; do
    case "$1" in
      --jobs) jobs=$2; shift 2 ;;
      --tier-mode) tier_mode=$2; shift 2 ;;
      --tier-mode=*) tier_mode=${1#--tier-mode=}; shift ;;
      --update) update="--update"; shift ;;
      *) build=$1; shift ;;
    esac
done

# Default mode compares the top-level set exactly; other modes keep
# their own set and skip the jit_tiers section (it is pinned per mode).
if [ "$tier_mode" = tier2 ]; then
    golden_dir=tests/golden
    ignore=""
else
    golden_dir=tests/golden/$tier_mode
    ignore="--ignore-section jit_tiers"
fi

[ -z "$update" ] || mkdir -p "$golden_dir"

repro="$(cd "$build" && pwd)/bench/xlvm-repro"
check="$(cd "$build" && pwd)/tools/xlvm-check-golden"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
fail=0

# One xlvm-repro process writes every sweep's report into $out/<pass>/.
run_pass() {
    local pass=$1
    mkdir -p "$out/$pass"
    echo "== $pass pass ($jobs jobs, tier $tier_mode)"
    (cd "$out/$pass" &&
        "$repro" --jobs "$jobs" --tier-mode "$tier_mode" --report json \
            > /dev/null)
}

# Compare every report of a pass with its golden; the two sets must
# match name for name.
check_pass() {
    local pass=$1; shift
    local f g stem
    for f in "$out/$pass"/*.json; do
        stem=$(basename "$f" .json)
        g=$golden_dir/$stem.json
        if [ ! -f "$g" ] && [ -z "$update" ]; then
            echo "FAIL $stem: report has no golden $g (regenerate:" \
                "ci/check_goldens.sh $build --tier-mode $tier_mode --update)" >&2
            fail=1
            continue
        fi
        "$check" "$f" "$g" $ignore "$@" $update || fail=1
    done
    for g in "$golden_dir"/*.json; do
        [ -f "$g" ] || continue
        stem=$(basename "$g" .json)
        if [ ! -f "$out/$pass/$stem.json" ]; then
            echo "FAIL $stem: golden $g has no report (stale)" >&2
            fail=1
        fi
    done
}

run_pass default
check_pass default

if [ -z "$update" ]; then
    # Sampling is pure host-side observation; the profile itself goes
    # outside the pass directory, which must hold reports only.
    XLVM_PROFILE="$out/profile.json" run_pass profiled
    check_pass profiled --ignore-section profiler

    # Every site armed at an nth no run reaches: each probe runs its
    # full armed bookkeeping, and arming alone must move no counter.
    never="recorder:1000000000,optimizer:1000000000,backend:1000000000"
    never="$never,trace_cache:1000000000,gc_hook:1000000000"
    XLVM_INJECT="$never" run_pass armed
    check_pass armed --ignore-section jit_robustness
fi

exit $fail
