#!/usr/bin/env bash
# Test-coverage ratchet: every package must stay at or above its floor.
#
#   scripts/cover.sh              # run tests with coverage, enforce floors
#   PROFILE=cov.out scripts/cover.sh   # also keep the merged profile
#
# Floors are set a few points below the measured coverage at the time a
# package last moved, so routine edits cannot trip the gate but a PR
# that lands a chunk of untested code fails loudly. Raise a floor when
# you raise a package's coverage — the ratchet only turns one way; never
# lower one to make a PR pass. Packages not listed (the thin cmd/ mains
# and examples) use DEFAULT_FLOOR.
set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE=${PROFILE:-/tmp/mtvec-cover.out}
DEFAULT_FLOOR=45

declare -A FLOOR=(
  [mtvec]=50
  [mtvec/cmd/mtvlint]=70
  [mtvec/internal/arch]=90
  [mtvec/internal/cluster]=78
  [mtvec/internal/core]=90
  [mtvec/internal/lint]=85
  [mtvec/internal/experiments]=88
  [mtvec/internal/isa]=85
  [mtvec/internal/kernel]=90
  [mtvec/internal/memsys]=85
  [mtvec/internal/metrics]=88
  [mtvec/internal/prog]=92
  [mtvec/internal/report]=95
  [mtvec/internal/runner]=75
  [mtvec/internal/sched]=90
  [mtvec/internal/session]=75
  [mtvec/internal/stats]=95
  [mtvec/internal/store]=86
  [mtvec/internal/trace]=85
  [mtvec/internal/vcomp]=88
  [mtvec/internal/workload]=91
)

out=$(go test -coverprofile="$PROFILE" -covermode=atomic ./...) || {
  echo "$out"
  exit 1
}
echo "$out"

fail=0
while read -r pkg pct; do
  floor=${FLOOR[$pkg]:-$DEFAULT_FLOOR}
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "FAIL: $pkg coverage $pct% is below its $floor% floor" >&2
    fail=1
  fi
done < <(echo "$out" | awk '/coverage:/ && $1 == "ok" {
  for (i = 1; i <= NF; i++) if ($i == "coverage:") { sub(/%$/, "", $(i+1)); print $2, $(i+1) }
}')

if [[ $fail -ne 0 ]]; then
  echo "coverage ratchet failed (floors live in scripts/cover.sh)" >&2
  exit 1
fi
echo "coverage ratchet OK (profile: $PROFILE)" >&2
