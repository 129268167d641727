#!/bin/sh
# Print the output of one small invocation of every rfdet subcommand
# that builds a run, each with a non-default value for every run flag
# it takes (runtime, threads, scale, seeds, jitter, fault plan and mode,
# server parameters).  `dune runtest` diffs this against
# cli_grid.expected; after an intended change, `dune promote` rewrites
# it.  Host-time fields "(N.NNs host)" are masked.
#
# usage: sh cli_grid.sh RFDET CORPUS_DIR

set -u
rfdet=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
corpus=$(cd "$2" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp" || exit 1

# show ARGS...: run rfdet with ARGS; print its stdout, its stderr (if
# any) and its exit status
show() {
  echo "\$ rfdet $*"
  "$rfdet" "$@" > stdout 2> stderr
  status=$?
  sed 's/([0-9.]*s host)/(N.NNs host)/' stdout
  if [ -s stderr ]; then
    echo "[stderr]"
    cat stderr
  fi
  echo "[exit $status]"
}

# file PATH: print a file's size and checksum
file() {
  echo "# $1: $(cksum < "$1")"
}

plan='crash,tid=2,op=lock,n=1'

show run micro-lock -r kendo -t 3 -s 0.5 --seed 5 --input-seed 7 \
  --jitter 3 --fault-plan "$plan" --fault-mode recover --profile-json run.json
file run.json
show run prodcons -r rfdet-pf -t 3 -s 0.2 --seed 3 --input-seed 9 --jitter 2 \
  --fault-plan 'crash,op=store,n=40'
show trace prodcons -r rfdet-noopt -t 3 -s 0.2 --seed 5 --input-seed 7 \
  --format lines -o trace.lines --ring 4000 --filter-kind lock_acquire,span
file trace.lines
# Unfiltered traces pin every Snapshot, Diff, Prop_page and Propagate
# event of both release paths: RFDet's slice close and the fence
# runtimes' commits.
show trace kvserver -r rfdet-ci -t 3 -s 0.2 --seed 5 --input-seed 7 \
  --format lines -o kv-ci.lines
file kv-ci.lines
show trace prodcons -r dthreads -t 3 -s 0.5 --seed 5 --input-seed 7 \
  --format lines -o pc-dthreads.lines
file pc-dthreads.lines
show trace prodcons -r coredet -t 3 -s 0.5 --seed 5 --input-seed 7 \
  --format lines -o pc-coredet.lines
file pc-coredet.lines
show profile micro-barrier -r dthreads -t 3 -s 0.5 --seed 5 --input-seed 7 \
  --top 3 --metrics-json metrics.json
file metrics.json
show record micro-handoff -r rfdet-noopt -t 3 -s 0.5 --seed 5 \
  --input-seed 7 --jitter 4 --fault-plan "$plan" --fault-mode recover \
  -o run.rfdj
file run.rfdj
show replay run.rfdj
show faults micro-lock -r kendo -t 3 -s 0.5 -n 3 --jitter 5 \
  --fault-plan 'crash,tid=2,op=store,n=2' -j 1
show clinic micro-lock -t 2 -s 0.5 --max-sites 6 --op-class lock -j 1
cp "$corpus/lock-drop-window.trace" "$corpus/racey-races.trace" .
show check --replay lock-drop-window.trace
show check --replay racey-races.trace
show races micro-lock -t 3 -s 0.5
show races --journal run.rfdj
show serve -r kendo -n 120 --rate 300 --workers 3 --shards 5 \
  --deadline 40000 --seed 5 --input-seed 7 --fault-plan "$plan" \
  --fault-mode recover --json serve.json -j 1
file serve.json
show serve -r rfdet-pf -n 60 --rate 500 --workers 2 --shards 3 \
  --deadline 50000 --seed 3 --input-seed 11 --fault-mode abort --sweep \
  --json sweep.json -j 1
file sweep.json
show serve --rw -r rfdet-noopt -n 120 --rate 300 --workers 3 --shards 4 \
  --deadline 40000 --seed 5 --input-seed 7 --fault-plan "$plan" \
  --fault-mode recover -j 1
show spans -r kendo -n 80 --rate 400 --workers 3 --shards 4 \
  --deadline 40000 --seed 5 --input-seed 7 --fault-plan "$plan" \
  --fault-mode recover --top 2 --percentile p99 --ring 100000 \
  --json spans.json -j 1
file spans.json
show spans --rw -r rfdet-ci -n 80 --rate 400 --workers 2 --shards 3 \
  --deadline 40000 --seed 5 --input-seed 7 --critical-path --top 1 -j 1
