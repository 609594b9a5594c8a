#!/bin/sh
# Fails when the experiment catalog and EXPERIMENTS.md drift apart: every
# id `incast_sim run` lists must appear in the doc as `incast_sim run <id>`,
# and every such mention in the doc must name a listed id.
#
# Usage: check_catalog_docs.sh path/to/incast_sim path/to/EXPERIMENTS.md
set -u
sim=$1
doc=$2

# `incast_sim run` with no id lists "  <id>  <title>" lines on stderr.
ids=$("$sim" run 2>&1 >/dev/null | awk '/^  [a-z0-9_]+ /{print $1}')
if [ -z "$ids" ]; then
  echo "error: '$sim run' listed no ids" >&2
  exit 1
fi

status=0
for id in $ids; do
  if ! grep -qE "incast_sim run ${id}([^A-Za-z0-9_]|\$)" "$doc"; then
    echo "error: $doc never mentions 'incast_sim run $id'" >&2
    status=1
  fi
done
for id in $(grep -oE 'incast_sim run [A-Za-z0-9_]+' "$doc" | awk '{print $3}' | sort -u); do
  if ! printf '%s\n' "$ids" | grep -qx "$id"; then
    echo "error: $doc mentions 'incast_sim run $id', which is not a catalog id" >&2
    status=1
  fi
done
exit $status
