#!/usr/bin/env bash
# Golden-snapshot regression gate.
#
# Regenerates the metrics report for every golden committed under
# tests/golden/ and compares it with xlvm-check-golden. Counters are
# deterministic regardless of --jobs, so any diff is a real behavior
# change: either fix the regression, or — when the change is intended
# to move counters — rerun with --update and commit the new goldens.
#
# The gate runs three passes: once with the default configuration,
# once with the sampling profiler armed (XLVM_PROFILE), and once with
# the fault-injection engine armed. The profiled pass enforces the
# sampler's contract — sampling is pure host-side observation, so the
# report must match the golden exactly except for the "profiler"
# section (the sampler's own telemetry). The armed-fault pass arms the
# engine with a spec that can never fire (every site's nth is far
# beyond any real visit count), exercising the full shouldFire()
# bookkeeping path on every probe: arming alone must not move a single
# modeled counter, so the report must match the golden except for the
# engine's own host-side telemetry (--ignore-section jit_robustness).
# Both extra passes run in EVERY tier mode. --update skips the extra
# passes (goldens are recorded with the profiler off and the fault
# engine disarmed).
#
# --tier-mode MODE selects the JIT tier policy (tier2 = default).
# Non-default modes compare against their own golden set
# (tests/golden/<mode>/) and ignore the jit_tiers section, whose
# per-tier byte/cycle split is pinned by the per-mode set itself. A
# missing per-mode golden set is a hard failure, not a skip — regenerate
# it with "ci/check_goldens.sh <build> --tier-mode <mode> --update" and
# commit.
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

if [ -n "$update" ]; then
    mkdir -p "$golden_dir"
elif ! ls "$golden_dir"/*.json > /dev/null 2>&1; then
    echo "FAIL: no golden set for tier mode '$tier_mode' at $golden_dir/" >&2
    echo "      regenerate: ci/check_goldens.sh $build --tier-mode $tier_mode --update" >&2
    exit 1
fi

# golden stem -> bench binary that regenerates it
bench_for() {
    case "$1" in
      table1) echo table1_pypy_suite ;;
      table2) echo table2_clbg ;;
      table3) echo table3_aot_calls ;;
      table4) echo table4_phase_uarch ;;
      fig2) echo fig2_phase_breakdown ;;
      fig3) echo fig3_phase_timeline ;;
      fig4) echo fig4_clbg_phases ;;
      fig5) echo fig5_warmup ;;
      fig6) echo fig6_ir_stats ;;
      fig7) echo fig7_ir_categories ;;
      fig8) echo fig8_ir_histogram ;;
      fig9) echo fig9_asm_per_ir ;;
      ablation_optimizer) echo ablation_optimizer ;;
      *) echo "" ;;
    esac
}

# On --update, (re)generate the full set from the default set's stems —
# a per-mode dir that is missing or partial must not shrink coverage.
# On check, iterate the per-mode set itself.
stems() {
    local g
    if [ -z "$update" ] && ls "$golden_dir"/*.json > /dev/null 2>&1; then
        for g in "$golden_dir"/*.json; do basename "$g" .json; done
    else
        for g in tests/golden/*.json; do basename "$g" .json; done
    fi
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
fail=0

for stem in $(stems); do
    bin=$(bench_for "$stem")
    if [ -z "$bin" ]; then
        echo "SKIP $stem: no bench binary mapped" >&2
        continue
    fi
    echo "== $stem ($bin, $jobs jobs, tier $tier_mode)"
    "$build/bench/$bin" --jobs "$jobs" --tier-mode "$tier_mode" \
        --report "json:$out/$stem.json" > /dev/null
    "$build/tools/xlvm-check-golden" "$out/$stem.json" \
        "$golden_dir/$stem.json" $ignore $update || fail=1
done

# The profiled pass runs in EVERY tier mode: sampling must be
# non-perturbing under each tier policy, and per-tier counters
# (jit_tiers) are part of what it must not perturb.
if [ -z "$update" ]; then
    for stem in $(stems); do
        bin=$(bench_for "$stem")
        [ -z "$bin" ] && continue
        echo "== $stem ($bin, $jobs jobs, tier $tier_mode, profiler on)"
        XLVM_PROFILE="$out/$stem.profile.json" "$build/bench/$bin" \
            --jobs "$jobs" --tier-mode "$tier_mode" \
            --report "json:$out/$stem.prof.json" > /dev/null
        "$build/tools/xlvm-check-golden" "$out/$stem.prof.json" \
            "$golden_dir/$stem.json" $ignore \
            --ignore-section profiler || fail=1
    done
fi

# The armed-fault pass (also every tier mode): XLVM_INJECT arms the
# deterministic fault engine at every site with an nth no run can
# reach, so each injection probe runs its full armed bookkeeping path
# but never fires. The engine's bit-identity contract says arming must
# not move any modeled counter; only its own telemetry (visit counts,
# the armed flag) may differ from the disarmed golden.
never="recorder:1000000000,optimizer:1000000000,backend:1000000000"
never="$never,trace_cache:1000000000,gc_hook:1000000000"
if [ -z "$update" ]; then
    for stem in $(stems); do
        bin=$(bench_for "$stem")
        [ -z "$bin" ] && continue
        echo "== $stem ($bin, $jobs jobs, tier $tier_mode, faults armed)"
        XLVM_INJECT="$never" "$build/bench/$bin" \
            --jobs "$jobs" --tier-mode "$tier_mode" \
            --report "json:$out/$stem.armed.json" > /dev/null
        "$build/tools/xlvm-check-golden" "$out/$stem.armed.json" \
            "$golden_dir/$stem.json" $ignore \
            --ignore-section jit_robustness || fail=1
    done
fi

exit $fail
