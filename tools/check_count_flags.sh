#!/bin/sh
# Count-flag refusal check (the `tools_refuse_bad_counts` ctest test,
# label `serve`). Runs wario_loadgen and wario_served with counts out of
# range and requires exit status 2 from each: a value of 2^32 or more for
# an `unsigned` field, a negative value, and more --connections than
# wario_loadgen's cap of 256. Both tools refuse these while they parse
# their arguments, before any thread starts or socket is bound. The
# socket each run names lies in a directory that does not exist, so a
# tool that accepted a bad count would fail to connect or bind (status
# 1) rather than serve.
#
# Usage: tools/check_count_flags.sh <wario_loadgen> <wario_served>

set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <wario_loadgen> <wario_served>" >&2
  exit 2
fi
loadgen=$1
served=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
sock=$tmp/missing/wario.sock

status=0
expect_refused() {
  "$@" > /dev/null 2>&1
  code=$?
  if [ $code -ne 2 ]; then
    echo "check_count_flags: FAIL: exit status $code, not 2: $*"
    status=1
  fi
}

expect_refused "$loadgen" --socket "$sock" --connections 4294967297
expect_refused "$loadgen" --socket "$sock" --connections 257
expect_refused "$loadgen" --socket "$sock" --requests 4294967296
expect_refused "$loadgen" --socket "$sock" --jobs -1
expect_refused "$served" --socket "$sock" --jobs -1
expect_refused "$served" --socket "$sock" --jobs 4294967296
exit $status
