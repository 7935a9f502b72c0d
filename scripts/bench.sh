#!/usr/bin/env bash
# Reproducible benchmark runner (see docs/PERF.md).
#
#   scripts/bench.sh                  # measure -> BENCH_PR.json, gate vs BENCH_baseline.json
#   scripts/bench.sh -o OUT.json      # measure into OUT.json only (no gate)
#   scripts/bench.sh --refresh        # re-record BENCH_baseline.json on this machine
#   scripts/bench.sh --gate-ref REF   # measure REF and this tree on THIS machine in COUNT
#                                     # alternating rounds and gate on the pooled samples
#                                     # (what CI uses: same-hardware comparison, so the
#                                     # gate never trips on runner-vs-laptop differences)
#   scripts/bench.sh --cpuprofile cpu.pprof --memprofile mem.pprof
#                                     # also profile the measuring run (either flag alone
#                                     # works; combine with any mode above)
#
# Environment knobs (all optional):
#   BENCHTIME    minimum measuring time per benchmark   (default 300ms)
#   COUNT        samples per benchmark, fastest wins    (default 3;
#                with --gate-ref, rounds per side of one sample each)
#   BENCH_JOBS   session gate width for the sweep cases (default: all cores)
#   MAX_REGRESS  geomean ns/op regression gate fraction (default 0.10)
#   MAX_REGRESS_BYTES  geomean B/op regression gate fraction (default 0.10)
#   BASELINE     baseline artifact path                 (default BENCH_baseline.json)
#   MTVEC_BENCH_SCALE  workload scale override; recorded in the artifact
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME=${BENCHTIME:-300ms}
COUNT=${COUNT:-3}
BENCH_JOBS=${BENCH_JOBS:-0}
MAX_REGRESS=${MAX_REGRESS:-0.10}
MAX_REGRESS_BYTES=${MAX_REGRESS_BYTES:-0.10}
BASELINE=${BASELINE:-BENCH_baseline.json}

OUT=BENCH_PR.json
GATE=1
REF=${GITHUB_SHA:-local}
GATE_REF=
PROFILE_FLAGS=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    -o) OUT=$2; GATE=0; shift 2 ;;
    --refresh) OUT=$BASELINE; GATE=0; REF=baseline; shift ;;
    --gate-ref) GATE_REF=$2; shift 2 ;;
    --cpuprofile) PROFILE_FLAGS+=(-cpuprofile "$2"); shift 2 ;;
    --memprofile) PROFILE_FLAGS+=(-memprofile "$2"); shift 2 ;;
    *) echo "usage: scripts/bench.sh [-o OUT.json | --refresh | --gate-ref REF] [--cpuprofile F] [--memprofile F]" >&2; exit 2 ;;
  esac
done

JOBS_FLAGS=()
if [[ $BENCH_JOBS -gt 0 ]]; then
  JOBS_FLAGS=(-bench-jobs "$BENCH_JOBS")
fi

if [[ -n $GATE_REF ]]; then
  # Same-machine gate: build the base ref's mtvbench and this tree's once,
  # then take COUNT rounds of one sample per case on each side, the side
  # that goes first alternating by round (base, PR; PR, base; ...). Host
  # drift over the run then lands on both sides instead of in the ratio.
  # -bench-compare pools each side's rounds and gates on each case's
  # fastest sample. Falls back to the checked-in baseline if the base ref
  # predates the harness.
  TMP=$(mktemp -d)
  WT=$TMP/base
  trap 'git worktree remove --force "$WT" >/dev/null 2>&1 || true; rm -rf "$TMP"' EXIT
  git worktree add --detach "$WT" "$GATE_REF" >&2
  if [[ -f "$WT/cmd/mtvbench/bench.go" ]]; then
    BASE_JOBS_FLAGS=()
    if [[ $BENCH_JOBS -gt 0 ]] && grep -q 'bench-jobs' "$WT/cmd/mtvbench/main.go"; then
      BASE_JOBS_FLAGS=(-bench-jobs "$BENCH_JOBS")
    fi
    ROOT=$PWD
    (cd "$WT" && go build -o "$TMP/mtvbench-base" ./cmd/mtvbench)
    go build -o "$TMP/mtvbench-pr" ./cmd/mtvbench
    run_base() {
      echo "round $1: base $GATE_REF -> BENCH_base.$1.json" >&2
      (cd "$WT" && "$TMP/mtvbench-base" -bench-json -benchtime "$BENCHTIME" -bench-count 1 \
        -bench-ref "$GATE_REF" -o "$ROOT/BENCH_base.$1.json" \
        ${BASE_JOBS_FLAGS[@]+"${BASE_JOBS_FLAGS[@]}"})
    }
    run_pr() {
      echo "round $1: PR -> ${OUT%.json}.$1.json" >&2
      "$TMP/mtvbench-pr" -bench-json -benchtime "$BENCHTIME" -bench-count 1 \
        -bench-ref "$REF" -o "${OUT%.json}.$1.json" "${JOBS_FLAGS[@]}"
    }
    BASE_LIST=
    PR_LIST=
    for ((i = 1; i <= COUNT; i++)); do
      if ((i % 2)); then run_base "$i"; run_pr "$i"; else run_pr "$i"; run_base "$i"; fi
      BASE_LIST+=${BASE_LIST:+,}BENCH_base.$i.json
      PR_LIST+=${PR_LIST:+,}${OUT%.json}.$i.json
    done
    if [[ ${#PROFILE_FLAGS[@]} -gt 0 ]]; then
      # Profile a separate PR pass, so no gated sample pays for profiling.
      echo "profiling one PR pass" >&2
      "$TMP/mtvbench-pr" -bench-json -benchtime "$BENCHTIME" -bench-count 1 -q \
        -o /dev/null "${JOBS_FLAGS[@]}" "${PROFILE_FLAGS[@]}"
    fi
    "$TMP/mtvbench-pr" -bench-compare -max-regress "$MAX_REGRESS" \
      -max-regress-bytes "$MAX_REGRESS_BYTES" \
      -o BENCH_compare.json "$BASE_LIST" "$PR_LIST"
    exit 0
  fi
  echo "base ref $GATE_REF predates the bench harness; using $BASELINE" >&2
fi

echo "measuring benchmark suite (benchtime=$BENCHTIME count=$COUNT) -> $OUT" >&2
go run ./cmd/mtvbench -bench-json -benchtime "$BENCHTIME" -bench-count "$COUNT" \
  -bench-ref "$REF" -o "$OUT" "${JOBS_FLAGS[@]}" \
  ${PROFILE_FLAGS[@]+"${PROFILE_FLAGS[@]}"}

[[ $GATE -eq 1 ]] || exit 0

if [[ ! -f $BASELINE ]]; then
  echo "no $BASELINE checked in; skipping the regression gate" >&2
  exit 0
fi
go run ./cmd/mtvbench -bench-compare -max-regress "$MAX_REGRESS" \
  -max-regress-bytes "$MAX_REGRESS_BYTES" \
  -o BENCH_compare.json "$BASELINE" "$OUT"
