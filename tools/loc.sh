#!/usr/bin/env bash
# Lines of Rust per crate at two revisions, and the change between them.
#
#   tools/loc.sh <base-rev> [<head-rev>]      (head defaults to HEAD)
#
# Counts the lines of every `.rs` file under each `crates/*/src`, the root
# `src/` and the root `tests/`, as committed at each revision. It reads
# only `git ls-tree` and `git show`, so nothing is checked out and the
# working tree is not consulted: commit (or stash) first to count it.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <base-rev> [<head-rev>]" >&2
    exit 2
fi
base=$1
head=${2:-HEAD}
for rev in "$base" "$head"; do
    git rev-parse --verify --quiet "$rev^{commit}" >/dev/null \
        || { echo "$0: unknown revision '$rev'" >&2; exit 2; }
done

# Print "<group> <lines>" for every counted file at revision $1.
count() {
    git ls-tree -r --name-only "$1" -- crates src tests \
        | grep -E '^(crates/[^/]+/src|src|tests)/.*\.rs$' \
        | while IFS= read -r f; do
            case $f in
                crates/*) group=$(echo "$f" | cut -d/ -f1-3) ;;
                *) group=${f%%/*} ;;
            esac
            printf '%s %s\n' "$group" "$(git show "$1:$f" | wc -l)"
        done
}

{ count "$base" | sed 's/^/base /'; count "$head" | sed 's/^/head /'; } \
    | awk '{ lines[$1 " " $2] += $3; groups[$2] = 1 }
        END { for (g in groups) print g, lines["base " g] + 0, lines["head " g] + 0 }' \
    | sort \
    | awk -v b="$base" -v h="$head" '
        BEGIN { printf "%-24s %10s %10s %8s\n", "group", b, h, "delta" }
        { printf "%-24s %10d %10d %+8d\n", $1, $2, $3, $3 - $2; tb += $2; th += $3 }
        END { printf "%-24s %10d %10d %+8d\n", "total", tb, th, th - tb }'
