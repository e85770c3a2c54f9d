#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#
#   ./scripts/check.sh
#
# Runs formatting, the release build, the full test suite (goldens in
# verify-only mode), the benchmark harness's build and tests, and clippy
# (warnings are errors) over the workspace.
# Golden fixtures — the reproduced paper tables and the trace-event
# schema — are compared byte-for-byte here; regenerate intentionally
# changed ones with
#   UPDATE_GOLDEN=1 cargo test -p maestro-bench --test golden_tables
#   UPDATE_GOLDEN=1 cargo test -p maestro-trace --test golden_schema
# and review the diff before re-running this gate.
set -euo pipefail
cd "$(dirname "$0")/.."

FIRST_PARTY=(
    -p maestro -p maestro-geom -p maestro-tech -p maestro-netlist
    -p maestro-estimator -p maestro-place -p maestro-route
    -p maestro-fullcustom -p maestro-floorplan -p maestro-bench
    -p maestro-trace
)

echo "==> cargo fmt (first-party crates) -- --check"
# The vendored offline stand-ins under vendor/ are exempt from style
# gates; every crate this repo owns must be rustfmt-clean.
cargo fmt "${FIRST_PARTY[@]}" -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --no-fail-fast (goldens verify-only)"
# Drop UPDATE_GOLDEN if the caller's environment carries it: the gate
# must *verify* fixtures, never silently rewrite them. Regeneration is a
# deliberate, reviewed step (see header). --no-fail-fast runs every test
# binary even after one fails, so one failure cannot hide another.
env -u UPDATE_GOLDEN cargo test -q --no-fail-fast

echo "==> benchmark harness and perfbench tests"
# perfbench/harness is a package of its own that calls the crates' public
# API; building and testing it here makes an API change that would break
# the benchmark fail this gate instead of the benchmark run.
# Building it lets cargo rewrite the tracked perfbench/harness/Cargo.lock;
# keep a copy and put it back on exit, so the gate leaves perfbench/ as
# it found it.
HARNESS_LOCK=perfbench/harness/Cargo.lock
HARNESS_LOCK_COPY="$(mktemp)"
cp "$HARNESS_LOCK" "$HARNESS_LOCK_COPY"
trap 'cp "$HARNESS_LOCK_COPY" "$HARNESS_LOCK"; rm -f "$HARNESS_LOCK_COPY"' EXIT
cargo test -q --manifest-path perfbench/harness/Cargo.toml
python3 -m unittest discover -s perfbench/tests

echo "==> cargo clippy (first-party crates) -- -D warnings"
cargo clippy --all-targets "${FIRST_PARTY[@]}" -- -D warnings

echo "==> no debug_assert!-only guards in the sharding/chip-generation paths"
# Release builds compile debug_assert! away, so a bounds or overflow guard
# written that way silently vanishes exactly where million-device runs
# need it. The batch sharding and chip generators must guard with real
# checks (validated errors or clamps), never debug-only assertions.
SHARDING_PATHS=(crates/core/src/pipeline.rs crates/netlist/src/chip.rs)
if grep -n "debug_assert" "${SHARDING_PATHS[@]}"; then
    echo "error: debug_assert! found in sharding/chip code (use a real guard)" >&2
    exit 1
fi

echo "==> tier-1 gate passed"
