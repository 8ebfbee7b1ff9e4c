#!/usr/bin/env bash
# Repeatability check of one build: <sets> sets of <runs> `--all` runs,
# alternating between the sets (set 1, set 2, set 1, ...) so slow drift of
# the host hits every set alike. Run k of every set uses seed k, so the
# sets measure the same inputs and differ by host noise only — then
# `compare` of set 1 against every other set. Fails when any gated median
# differs between two sets by more than its bound; rows `compare` calls
# Unresolved (spread over the bound: the host was noisy) are shown, not failed.
#
#   bash benchmark/repeat.sh 2 5            # what the acceptance criteria ask
#   bash benchmark/repeat.sh 2 3 --smoke    # quick look
set -euo pipefail
sets=${1:?usage: repeat.sh <sets> <runs> [run.sh options]}
runs=${2:?usage: repeat.sh <sets> <runs> [run.sh options]}
shift 2
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=benchmark/out
mkdir -p "$out"
rm -f "$out"/set-*.jsonl
for run in $(seq 1 "$runs"); do
  for set in $(seq 1 "$sets"); do
    echo "repeat.sh: run $run of $runs, set $set of $sets, seed $run" >&2
    bash benchmark/run.sh --all --seed "$run" --trace 0 "$@" > /dev/null
    # One result per line; a set file is the concatenation.
    cat "$out"/result-*-trace0.json >> "$out/set-$set.jsonl"
  done
done
status=0
for set in $(seq 2 "$sets"); do
  echo "== set 1 against set $set =="
  # `compare` also exits non-zero on rows it cannot resolve (a spread over
  # the bound); between two sets of one build only a median that moved by
  # more than its bound, or a missing run, is a failure.
  table=$(bash benchmark/run.sh compare "$out/set-1.jsonl" "$out/set-$set.jsonl") || true
  echo "$table"
  if grep -Eq 'Regression|Missing' <<<"$table"; then status=1; fi
done
exit $status
