#!/bin/sh
# Fails when a journaled subcommand's config drifts for a fixed command
# line. Each case runs one of ci.yml's small journal invocations and
# compares the journal's header line, whose fingerprint hashes the whole
# canonical config, with the line that invocation has always written. A
# flag whose default or binding changed moves the fingerprint, and an
# existing journal of that command would be refused on resume.
#
# Usage: check_journal_fingerprints.sh path/to/incast_sim work-dir
set -u
sim=$1
dir=$2
mkdir -p "$dir" || exit 1

status=0
# check <command> <fingerprint> <tasks> <flags...>
check() {
  command=$1
  want="{\"command\":\"$1\",\"fingerprint\":\"$2\",\"journal\":\"incast-task-journal\",\"tasks\":$3,\"version\":1}"
  shift 3
  journal="$dir/$command.journal"
  rm -f "$journal"
  if ! "$sim" "$command" "$@" --journal "$journal" > "$dir/$command.out" 2>&1; then
    echo "error: incast_sim $command $* failed:" >&2
    cat "$dir/$command.out" >&2
    status=1
    return
  fi
  got=$(head -n 1 "$journal")
  if [ "$got" != "$want" ]; then
    echo "error: incast_sim $command $* wrote the journal header" >&2
    echo "  $got" >&2
    echo "expected" >&2
    echo "  $want" >&2
    status=1
  fi
}

check faults 16894300664209642948 3 --flows 40 --bursts 3 --duration 3ms \
  --drop-rates 0,1e-3 --flap-durations 2ms --flap-at 5ms
check fleet 15434976151256674511 4 --service messaging --hosts 2 --snapshots 2 \
  --trace 60ms --jobs 2 --export-csv "$dir/fleet.csv"
check collateral 4149870299397539416 4 --degrees 16 --bursts 2 --duration 3ms \
  --gap 2ms --export-csv "$dir/collateral.csv"
check scaling 2924347212054864904 2 --degrees 8,16 --hosts-per-leaf 4 --pods 2 \
  --leaves 2 --aggs 0 --spines 2 --bytes 27000 --domains 2 --export-csv "$dir/scaling.csv"
check chaos 13680645184557046104 25 --configs 25 --seed 7 --jobs 4
exit $status
