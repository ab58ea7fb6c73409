#!/usr/bin/env bash
# List the tools/cli_digest.py labels whose CLI bytes differ between REV's
# src/ (default HEAD) and the working tree's src/, then their count:
#
#     tools/digest_diff.sh [REV]
#
# REV's src/ is extracted with git archive into a temporary directory that is
# removed on exit; the digest corpus is the working tree's.  Nothing is
# written inside the repository.
set -euo pipefail
rev="${1:-HEAD}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export PYTHONDONTWRITEBYTECODE=1
git -C "$root" archive "$rev" src | tar -x -C "$tmp"
PYTHONPATH="$tmp/src" python3 "$root/tools/cli_digest.py" > "$tmp/rev.txt"
PYTHONPATH="$root/src" python3 "$root/tools/cli_digest.py" > "$tmp/tree.txt"
awk 'NR == FNR { rev[$1] = $2; next }
     !($1 in rev) { print $1 " (new)"; n++; next }
     rev[$1] != $2 { print $1; n++ }
     { delete rev[$1] }
     END { for (label in rev) { print label " (gone)"; n++ }
           print n + 0 " changed" }' "$tmp/rev.txt" "$tmp/tree.txt"
