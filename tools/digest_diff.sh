#!/usr/bin/env bash
# List the tools/cli_digest.py labels whose CLI bytes differ between REV's
# src/ (default HEAD) and the working tree's src/, then their count:
#
#     tools/digest_diff.sh [REV]
#
# REV's src/ is extracted with git archive into a temporary directory that is
# removed on exit.  Each side runs its own tools/cli_digest.py corpus (the
# working tree's for REV when REV has none), so a label only one side has
# is listed as (new) or (gone).  Nothing is written inside the repository.
set -euo pipefail
rev="${1:-HEAD}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export PYTHONDONTWRITEBYTECODE=1
corpus="$root/tools/cli_digest.py"
if git -C "$root" cat-file -e "$rev:tools/cli_digest.py" 2>/dev/null; then
    git -C "$root" archive "$rev" src tools/cli_digest.py | tar -x -C "$tmp"
    corpus="$tmp/tools/cli_digest.py"
else
    git -C "$root" archive "$rev" src | tar -x -C "$tmp"
fi
PYTHONPATH="$tmp/src" python3 "$corpus" > "$tmp/rev.txt"
PYTHONPATH="$root/src" python3 "$root/tools/cli_digest.py" > "$tmp/tree.txt"
awk 'NR == FNR { rev[$1] = $2; next }
     !($1 in rev) { print $1 " (new)"; n++; next }
     rev[$1] != $2 { print $1; n++ }
     { delete rev[$1] }
     END { for (label in rev) { print label " (gone)"; n++ }
           print n + 0 " changed" }' "$tmp/rev.txt" "$tmp/tree.txt"
