#!/bin/sh
# Regenerator golden check (registered as the `regen_<name>` ctest tests,
# label `regen`). Runs one experiment regenerator twice, with
# WARIO_STRATEGIES unset and set to 1, and diffs each stdout byte for
# byte against its recorded golden: <name>.txt for the unset run, and
# <name>.strategies.txt for the WARIO_STRATEGIES=1 run. Only the
# regenerators whose stdout depends on WARIO_STRATEGIES have a
# <name>.strategies.txt; when it is absent, the WARIO_STRATEGIES=1 run is
# diffed against <name>.txt. A non-zero exit fails the check as well.
# Stderr (timings, engine statistics) is not compared.
#
# Usage: tools/check_regen.sh <regenerator-binary> <golden-dir>
#
# A change meant to move the paper's numbers re-records <name>.txt, and
# re-records <name>.strategies.txt only for the four regenerators whose
# stdout depends on it (fig4_execution_time, table1_checkpoint_delta,
# table3_intermittent, verify_crash):
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

strategies_golden=$dir/$name.strategies.txt
[ -f "$strategies_golden" ] || strategies_golden=$dir/$name.txt

status=0
for strategies in unset 1; do
  if [ $strategies = 1 ]; then
    golden=$strategies_golden
    (WARIO_STRATEGIES=1; export WARIO_STRATEGIES; exec "$bin") > "$out"
  else
    golden=$dir/$name.txt
    (unset WARIO_STRATEGIES; exec "$bin") > "$out"
  fi
  code=$?
  if [ $code -ne 0 ]; then
    echo "check_regen: FAIL: $name exited with status $code" \
      "(WARIO_STRATEGIES=$strategies)"
    status=1
  elif ! diff -u "$golden" "$out"; then
    echo "check_regen: FAIL: $name stdout (WARIO_STRATEGIES=$strategies)" \
      "differs from $golden"
    status=1
  fi
done
exit $status
