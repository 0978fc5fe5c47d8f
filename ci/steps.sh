#!/usr/bin/env bash
# The command-line checks of the CI tests job: exit codes, byte-identical
# scans and cache replays, and the time limits of three commands.
#
# It runs the command named by $GENUSKIT (default: the installed console
# script `genuskit`) in a fresh temporary directory, which it removes on
# exit. From a checkout without the package installed:
#
#   GENUSKIT="python -m genuskit.cli" PYTHONPATH="$PWD/src" ci/steps.sh
#
# PYTHONPATH must be absolute, because the checks run in the temporary
# directory. The first failing check stops the script with a nonzero exit.
set -euo pipefail

GK=${GENUSKIT:-genuskit}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

step() { printf '== %s\n' "$*"; }

# $GK is left unquoted on purpose: "python -m genuskit.cli" is three words.

step "the console script runs genus and classgroup"
$GK genus -d -5 --json
$GK classgroup -D -84 --json

step "genus reports rank 6 and the Gauss identity for d = -510510 and 510510 (r = 7, 128 genus images)"
for d in -510510 510510; do
    $GK --json genus -d "$d" > genus.out
    python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["rank2"] != 6 or r["gauss_holds"] is not True)' genus.out
done

step "classgroup reports h+ = 83 for D = 2184769, and genus a norm -1 unit and the Gauss identity for d = 1999441"
# real fields near 2e6, whose class groups are walked cycle by cycle on
# their seeds; 1999441 has a unit of norm -1, so each class is its negation
$GK --json classgroup -D 2184769 > classgroup.out
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["h_plus"] != 83)' classgroup.out
$GK --json genus -d 1999441 > genus.out
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["gauss_holds"] is not True or r["norm_minus_one"] is not True)' genus.out

step "a negative node budget is a usage error (exit 2) in both commands"
set +e
$GK quintic --nodes 31 --node-budget -1; q=$?
$GK nodecode -n 8 -k 2 -w 4 --node-budget -1; n=$?
set -e
# two commands, not one && list: set -e ignores a failure before the last &&
test "$q" -eq 2
test "$n" -eq 2

step "a command whose stdout reader has gone exits 141 with nothing on stderr"
# the read end of the pipe is closed before the command starts: a shell
# `| head` would race the command's write
python -c '
import os, shlex, subprocess, sys
read_end, write_end = os.pipe()
os.close(read_end)
proc = subprocess.run(shlex.split(sys.argv[1]) + ["genus", "-d", "-5"], stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE)
print("exit", proc.returncode, "stderr", proc.stderr)
sys.exit(proc.returncode != 141 or proc.stderr != b"")
' "$GK"

step "a scan with two workers matches the serial scan byte for byte"
$GK --json --workers 2 --cache a.jsonl scan -- -300 300 > a.out
$GK --json --cache b.jsonl scan -- -300 300 > b.out
cmp a.out b.out
cmp a.jsonl b.jsonl

step "scans without a cache match the cached scan byte for byte, serially and with two workers"
$GK --json scan -- -300 300 > e.out
$GK --json --workers 2 scan -- -300 300 > f.out
cmp b.out e.out
cmp b.out f.out

step "scans replayed from the cache match cold scans and leave the cache unchanged"
cp b.jsonl b.before
$GK --json --cache b.jsonl scan -- -300 300 > b.warm
cmp b.out b.warm
$GK --json --cache b.jsonl scan -- -50 50 > c.warm
$GK --json --cache c.jsonl scan -- -50 50 > c.cold
cmp c.warm c.cold
cmp b.jsonl b.before

step "a cache replay in dev mode leaves no file unclosed"
# an unclosed file is reported on stderr, and the exit code stays 0; the
# variables reach the interpreter of $GK, a console script too
PYTHONDEVMODE=1 PYTHONWARNINGS=error::ResourceWarning $GK --json --cache b.jsonl scan -- -300 300 > g.out 2> g.err
cmp b.out g.out
test ! -s g.err

step "a scan with an undecodable cache line, a newest line with a non-bool check field or another field's record, a 5000-digit key or a line nested too deep matches the cold scan"
cp b.jsonl d.jsonl
printf '\xff\n' >> d.jsonl
grep '^{"key": -20, ' b.jsonl | sed 's/"gauss_holds": true/"gauss_holds": 0/' >> d.jsonl
grep -q '^{"key": -20, .*"gauss_holds": 0' d.jsonl
# d = -6's record (D = -24) filed under d = -5's key, failing its check
grep '^{"key": -24, ' b.jsonl | sed 's/^{"key": -24, /{"key": -20, /; s/"gauss_holds": true/"gauss_holds": false/' >> d.jsonl
grep -q '^{"key": -20, .*"D": -24, .*"gauss_holds": false' d.jsonl
python -c 'print("{\"key\": " + "1" * 5000 + ", \"version\": \"1\"}")' >> d.jsonl
python -c 'print("{\"key\": -20, \"version\": \"1\", \"value\": " + "[" * 100000 + "]" * 100000 + "}")' >> d.jsonl
$GK --json --cache d.jsonl scan -- -300 300 > d.out
cmp b.out d.out

step "a keylemma file nested too deep is a usage error (exit 2)"
python -c 'print("[" * 100000 + "]" * 100000)' > deep.json
set +e
$GK keylemma deep.json 2> deep.err; k=$?
set -e
test "$k" -eq 2
grep -q '^error:' deep.err

step "the search decides [32, 6] with weights {16, 20} by exhaustion within a minute"
timeout 60 $GK --json nodecode -n 32 -k 6 -w 16,20 > nodecode.out
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["search"] != "NONEXISTENT")' nodecode.out

step "the search decides [20, 7] with weights {8, 12, 14} by exhaustion within a minute"
# k = 7: the row enumeration's last level carries 32 lanes, and a
# state's span weights 128 byte lanes; the MacWilliams filter leaves one
# distribution, so only the search decides
timeout 60 $GK --json nodecode -n 20 -k 7 -w 8,12,14 > nodecode7.out
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["search"] != "NONEXISTENT")' nodecode7.out

step "an out-of-bound range exits 3 before any work, and a sign clips the range"
set +e
timeout 10 $GK scan -- -2500000 1000000000; s=$?
set -e
test "$s" -eq 3
$GK --json scan --sign neg -- 0 10 | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["skipped"] != 0)'

step "all checks passed"
