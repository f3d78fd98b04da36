#!/bin/sh
# Regenerator golden check (registered as the `regen_<name>` ctest tests,
# label `regen`). Runs one experiment regenerator twice, with
# WARIO_STRATEGIES unset and set to 1, and diffs each stdout byte for
# byte against its recorded golden: <name>.txt and <name>.strategies.txt
# in the golden directory. A non-zero exit fails the check as well.
# Stderr (timings, engine statistics) is not compared.
#
# Usage: tools/check_regen.sh <regenerator-binary> <golden-dir>
#
# A change meant to move the paper's numbers re-records both goldens:
#   <bin> > <dir>/<name>.txt
#   WARIO_STRATEGIES=1 <bin> > <dir>/<name>.strategies.txt

set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <regenerator-binary> <golden-dir>" >&2
  exit 2
fi
bin=$1
dir=$2
name=$(basename "$bin")
out=$(mktemp)
trap 'rm -f "$out"' EXIT

status=0
for golden in "$dir/$name.txt" "$dir/$name.strategies.txt"; do
  case $golden in
    *.strategies.txt) (WARIO_STRATEGIES=1; export WARIO_STRATEGIES
                       exec "$bin") > "$out" ;;
    *) (unset WARIO_STRATEGIES; exec "$bin") > "$out" ;;
  esac
  code=$?
  if [ $code -ne 0 ]; then
    echo "check_regen: FAIL: $name exited with status $code ($golden)"
    status=1
  elif ! diff -u "$golden" "$out"; then
    echo "check_regen: FAIL: $name stdout differs from $golden"
    status=1
  fi
done
exit $status
