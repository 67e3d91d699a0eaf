#!/usr/bin/env bash
# Rule-2 code lines per crate: non-blank, non-comment (`//`, `///`, `//!`)
# lines above each file's first `#[cfg(test)]` line (at any indentation),
# summed over every `.rs` file under `crates/<crate>/src`, bins included.
#
#   tools/loc.sh [<git-ref>]
#
# Without an argument it counts the working tree; with one it counts the
# files of that commit (read with `git show`, nothing is checked out).
# Prints one `<lines> <crate>` row per crate, then the six library crates'
# subtotal and the total over all nine.
#
# Everything before a file's first `#[cfg(test)]` counts, even where that
# attribute marks a lone test helper, so test-only items belong at the end
# of their file, just above its test module. A file that a
# `#[cfg(test)] mod name;` item declares is test-only and not counted, nor
# is any file under that module's directory.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
ref=${1:-}
libs=(core netsim mlforest gda gateway workloads)
rest=(scenarios experiments bench)

files_of() {
    if [[ -n $ref ]]; then
        git ls-tree -r --name-only "$ref" -- "crates/$1/src" | grep '\.rs$' || true
    else
        find "crates/$1/src" -name '*.rs' | sort
    fi
}

content_of() {
    if [[ -n $ref ]]; then git show "$ref:$1"; else cat "$1"; fi
}

# `<dir>/<name>` of every `#[cfg(test)] mod <name>;` item in a crate: the
# module lives at `<dir>/<name>.rs` or under `<dir>/<name>/`.
test_only_mods() {
    local f dir
    while read -r f; do
        dir=${f%.rs}
        if [[ $f =~ /(lib|main|mod)\.rs$ || $(dirname "$f") == */src/bin ]]; then
            dir=$(dirname "$f")
        fi
        content_of "$f" | awk -v dir="$dir" '
            /^[[:space:]]*#\[cfg\(test\)\]/ {
                t = 1
                sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "")
                if ($0 == "") next
            }
            t && /^[[:space:]]*#\[/ { next }
            t && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/ {
                sub(/^.*mod[[:space:]]+/, "")
                sub(/[[:space:]]*;.*$/, "")
                print dir "/" $0
            }
            { t = 0 }'
    done < <(files_of "$1")
}

count() {
    local n=0 f m skip
    mapfile -t skip < <(test_only_mods "$1")
    while read -r f; do
        for m in "${skip[@]}"; do
            [[ $f == "$m.rs" || $f == "$m/"* ]] && continue 2
        done
        n=$((n + $(content_of "$f" | awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*(\/\/.*)?$/ { next }
            { n++ }
            END { print n + 0 }')))
    done < <(files_of "$1")
    echo "$n"
}

lib_total=0 total=0
for crate in "${libs[@]}" "${rest[@]}"; do
    n=$(count "$crate")
    printf '%6d %s\n' "$n" "$crate"
    total=$((total + n))
    [[ " ${libs[*]} " == *" $crate "* ]] && lib_total=$((lib_total + n))
done
printf '%6d %s\n' "$lib_total" "library crates (${libs[*]})"
printf '%6d %s\n' "$total" "total"
