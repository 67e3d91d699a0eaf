#!/usr/bin/env bash
# Public items of the library crates that no non-test code references.
#
#   tools/surface.sh
#
# Candidates are the `pub` fns, types, traits, consts and statics above the
# first `#[cfg(test)]` of each file under `crates/<crate>/src` (bins
# excluded) of the eight library crates. A reference is the item's name as
# a whole word on a non-comment line anywhere else; "code" is everything
# above a file's first `#[cfg(test)]` in any crate's `src` (bins and the
# repo benchmark included) and the root `src/`. An item with no code
# reference is printed with where its other references are:
#
#   unit      the defining crate's own `#[cfg(test)]` code
#   tests     integration tests (`crates/*/tests`, `tests/`) and other
#             crates' `#[cfg(test)]` code
#   examples  `examples/`
#
# and the action that follows: `delete` (no reference at all),
# `cfg(test)` (own unit tests only) or `keep` (an integration test, another
# crate's test or an example uses it). The match is by name only, so an item
# sharing its name with a used one (two `len` methods) is never printed: the
# scan can miss caller-less items but never lists one that has a caller.
# A deletion still needs a reader's judgement: a test that exists only to
# test the item counts as a caller here.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
libs="core netsim mlforest gda gateway workloads scenarios experiments"

{
    find crates/*/src src -name '*.rs'
    find crates/*/tests tests examples -name '*.rs' 2>/dev/null
} | sort | xargs awk -v libs="$libs" '
    BEGIN { n = split(libs, l, " "); for (i = 1; i <= n; i++) lib[l[i]] = 1 }
    FNR == 1 {
        t = 0
        split(FILENAME, p, "/")
        crate = p[1] == "crates" ? p[2] : "(root)"
        if (FILENAME ~ /^examples\//) where = "examples"
        else if (FILENAME ~ /^(tests\/|crates\/[^\/]+\/tests\/)/) where = "tests"
        else where = "src"
        candidate_file = where == "src" && (crate in lib) && FILENAME !~ /\/src\/bin\//
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
    /^[[:space:]]*\/\// { next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        def = ""
        if (!t && candidate_file &&
            match(line, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|type|const|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            head = substr(line, RSTART, RLENGTH)
            k = split(head, w, /[[:space:]]+/)
            def = w[k]
            kind[def, FILENAME ":" FNR] = w[k - 1]
            defs[def] = defs[def] " " FILENAME ":" FNR
            home[def, FILENAME ":" FNR] = crate
        } else if (match(line, /(fn|struct|enum|trait|type|const|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            head = substr(line, RSTART, RLENGTH)
            k = split(head, w, /[[:space:]]+/)
            def = w[k]
        }
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        m = split(line, tok, " ")
        for (i = 1; i <= m; i++) {
            if (tok[i] == def) { def = ""; continue }
            if (where == "src" && !t) code[tok[i]]++
            else if (where == "src") unit[crate, tok[i]]++
            else if (where == "tests") tests[tok[i]]++
            else ex[tok[i]]++
        }
    }
    END {
        for (name in defs) {
            if (code[name]) continue
            k = split(defs[name], at, " ")
            for (i = 1; i <= k; i++) {
                c = home[name, at[i]]
                own = unit[c, name] + 0
                other = tests[name] + 0
                for (x in lib) if (x != c) other += unit[x, name]
                for (x in unit) { split(x, y, SUBSEP); if (y[2] == name && !(y[1] in lib)) other += unit[x] }
                e = ex[name] + 0
                action = own + other + e == 0 ? "delete" : (other + e == 0 ? "cfg(test)" : "keep")
                printf "%-10s %-7s %-28s %-44s unit=%-3d tests=%-3d examples=%d\n", action, kind[name, at[i]], name, at[i], own, other, e
            }
        }
    }' | sort -k1,1 -k4,4
