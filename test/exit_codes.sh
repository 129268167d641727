#!/bin/sh
# Drive the built rfdet binary through every exit code that a committed
# input reaches, then check that `--help=plain` of the binary and of
# each subcommand lists the whole exit table (and not cmdliner's
# unused 123).
#
# usage: sh exit_codes.sh RFDET CORPUS_DIR

set -u
rfdet=$1
corpus=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# expect CODE WHAT COMMAND...: run COMMAND, which must exit with CODE
expect() {
  want=$1
  what=$2
  shift 2
  "$@" > "$tmp/out" 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $what: exit $got, expected $want" >&2
    cat "$tmp/out" >&2
    status=1
  fi
}

# usage_error WHAT COMMAND...: COMMAND must exit 64 before it prints
# anything on stdout
usage_error() {
  what=$1
  shift
  "$@" > "$tmp/out" 2> "$tmp/err"
  got=$?
  if [ "$got" -ne 64 ] || [ -s "$tmp/out" ]; then
    echo "FAIL: $what: exit $got with stdout of $(wc -c < "$tmp/out") \
bytes, expected 64 with none" >&2
    cat "$tmp/out" "$tmp/err" >&2
    status=1
  fi
}

journal=$corpus/micro-lock-t2.rfdj
size=$(wc -c < "$journal")
head -c $((size - 21)) "$journal" > "$tmp/torn.rfdj"
{ head -c 100 "$journal"; printf '\377'; tail -c +102 "$journal"; } \
  > "$tmp/corrupt.rfdj"
sed 's/^expect .*/expect 0/' "$corpus/lock-drop-window.trace" \
  > "$tmp/wrong-expect.trace"

expect 0 "the committed journal replays" \
  "$rfdet" replay "$journal"
expect 0 "a committed trace replays" \
  "$rfdet" check --replay "$corpus/lock-drop-window.trace"
expect 1 "the seeded drop window is found" \
  "$rfdet" check micro-lock -t 2 --bug-window 20:26
expect 2 "a barrier party crashed under containment deadlocks" \
  "$rfdet" run racey -s 0.1 --fault-plan crash,tid=2,op=lock,n=1
expect 3 "a crash under --fault-mode abort" \
  "$rfdet" run micro-lock -t 2 --fault-plan crash,tid=1,op=lock,n=1 \
  --fault-mode abort
expect 5 "unrecoverable metadata corruption" \
  "$rfdet" run micro-lock -t 3 --fault-plan corrupt,tid=1,op=store,n=2 \
  --fault-mode recover
expect 8 "a corrupt journal frame" \
  "$rfdet" replay "$tmp/corrupt.rfdj"
expect 9 "a torn journal tail" \
  "$rfdet" replay "$tmp/torn.rfdj"
expect 10 "a trace that does not reproduce its expect" \
  "$rfdet" check --replay "$tmp/wrong-expect.trace"
expect 64 "a missing journal" \
  "$rfdet" replay "$tmp/missing.rfdj"
expect 64 "a wildcard-tid fault plan under jitter" \
  "$rfdet" faults micro-lock --fault-plan 'crash,tid=*,op=lock,n=2' -n 2
usage_error "serve --rw --sweep" \
  "$rfdet" serve --rw --sweep -n 20
usage_error "serve --rw --json" \
  "$rfdet" serve --rw --json "$tmp/serve.json" -n 20
expect 124 "an unknown option" \
  "$rfdet" run --no-such-option

for cmd in "" run trace profile list racey races record replay faults \
  clinic check bench serve spans experiment; do
  # $cmd is unquoted on purpose: the empty entry is the binary's own help
  # shellcheck disable=SC2086
  "$rfdet" $cmd --help=plain > "$tmp/help"
  for code in 0 1 2 3 4 5 7 8 9 10 64 124 125; do
    if ! grep -Eq "^ +$code +(on|when) " "$tmp/help"; then
      echo "FAIL: rfdet $cmd --help does not list exit $code" >&2
      status=1
    fi
  done
  if grep -Eq "^ +123 " "$tmp/help"; then
    echo "FAIL: rfdet $cmd --help lists exit 123" >&2
    status=1
  fi
done

exit $status
