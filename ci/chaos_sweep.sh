#!/usr/bin/env bash
# Fault-injection chaos gate.
#
# Sweeps the deterministic fault engine across every injection site,
# arming one first-visit fault per run on a reduced Table I workload
# set. The containment contract under test: an injected fault must be
# absorbed as a structured TraceAbort / degradation event — every run
# still completes with its expected program output — and the armed
# site must actually report a firing (a sweep that "passes" because
# the fault never triggered would test nothing; see --inject spec
# validation in bench/repro.cc for the same reasoning at parse time).
#
# Usage: ci/chaos_sweep.sh [build-dir] [--jobs N]
set -euo pipefail

cd "$(dirname "$0")/.."

build=build
jobs=2
while [ $# -gt 0 ]; do
    case "$1" in
      --jobs) jobs=$2; shift 2 ;;
      --jobs=*) jobs=${1#--jobs=}; shift ;;
      *) build=$1; shift ;;
    esac
done

sites="recorder optimizer backend trace_cache gc_hook"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
fail=0

for site in $sites; do
    echo "== chaos: --inject $site:1"
    "$build/bench/xlvm-repro" --sweep table1 --jobs "$jobs" \
        --workloads richards,chaos,float \
        --inject "$site:1" \
        --report "json:$out/chaos_$site.json" > /dev/null
    if grep -q '"completed": false' "$out/chaos_$site.json"; then
        echo "FAIL: $site:1 left a run incomplete — fault escaped" >&2
        fail=1
    fi
    if ! grep -Eq "\"fault_${site}_fired\": [1-9]" "$out/chaos_$site.json"
    then
        echo "FAIL: $site:1 never fired — the sweep tested nothing" >&2
        fail=1
    fi
done

exit $fail
