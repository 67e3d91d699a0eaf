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
#
# A second pass lists settable values nothing sets: the `pub` fields of the
# library crates' `pub struct *Config` and `*Params` types that no code line
# sets, printed as `unset field Struct.field` with the same unit / tests /
# examples counts. A set is the field named in a struct literal of its type
# (`Type { field: .. }`, `Type { field, .. }`, or `Self { .. }` inside an
# `impl` of the type other than `impl Default`) or a `.field =` assignment
# (matched by field name alone). The pass only reports: a field that one
# caller sets to one value is a constant in waiting, but whether it goes is
# a reader's call.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
libs="core netsim mlforest gda gateway workloads scenarios experiments"

mapfile -t files < <({
    find crates/*/src src -name '*.rs'
    find crates/*/tests tests examples -name '*.rs' 2>/dev/null
} | sort)

awk -v libs="$libs" '
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
    }' "${files[@]}" | sort -k1,1 -k4,4

awk -v libs="$libs" '
    BEGIN { n = split(libs, l, " "); for (i = 1; i <= n; i++) lib[l[i]] = 1 }
    FNR == 1 {
        split(FILENAME, p, "/")
        crate = p[1] == "crates" ? p[2] : "(root)"
        if (FILENAME ~ /^examples\//) where = "examples"
        else if (FILENAME ~ /^(tests\/|crates\/[^\/]+\/tests\/)/) where = "tests"
        else where = "src"
        lib_src = where == "src" && (crate in lib) && FILENAME !~ /\/src\/bin\//
        t = 0; s = ""; instr = 0; depth = 0; top = 0; fpos = 0; cand = ""
        prev = prev2 = ""; hdr = 0; impl_s = ""; impl_def = 0; impl_depth = -1
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
    # Pass 1: the `pub` fields of every library `pub struct *Config/*Params`.
    pass == 1 {
        if (!lib_src || t) next
        if (match($0, /^pub struct [A-Za-z0-9_]*(Config|Params) \{/)) {
            s = substr($0, 12, RLENGTH - 13); known[s] = 1; next
        }
        if (s != "" && $0 ~ /^\}/) { s = ""; next }
        if (s != "" && match($0, /^[[:space:]]*pub [a-z_][a-z0-9_]*:/)) {
            f = substr($0, RSTART, RLENGTH - 1); sub(/^[[:space:]]*pub /, "", f)
            at[s "." f] = FILENAME ":" FNR; home[s "." f] = crate
        }
        next
    }
    # Pass 2: struct literals and field assignments, token by token, with
    # string and char literals blanked so their braces do not count.
    /^[[:space:]]*\/\// { next }
    {
        line = $0
        gsub(/\x27(\\.|[^\x27\\])\x27/, "\x27\x27", line)
        if (instr) {
            if (!match(line, /^([^"\\]|\\.)*"/)) next
            line = substr(line, RLENGTH + 1); instr = 0
        }
        gsub(/"([^"\\]|\\.)*"/, "", line)
        if (k = index(line, "\"")) { line = substr(line, 1, k - 1); instr = 1 }
        sub(/\/\/.*/, "", line)
        cls = where != "src" ? where : (t ? "unit:" crate : "code")
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*|::|\.\.|==|!=|<=|>=|=>|[-+*\/]=|[{}:,.=<>;()\[\]]/)) {
            step(substr(line, RSTART, RLENGTH))
            line = substr(line, RSTART + RLENGTH)
        }
    }
    function record(key) {
        if (cls == "code") set[key]++; else other[cls, key]++
    }
    function step(tok,    s) {
        if (cand != "") {
            if (tok == ":" || tok == "," || tok == "}") record(lit_s[top] "." cand)
            cand = ""
        }
        if (hdr) {
            if (tok == "<") ang++
            else if (tok == ">") ang--
            else if (tok == "Default") hdr_def = 1
            else if (tok == "{") { hdr = 0; impl_s = last; impl_def = hdr_def; impl_depth = depth + 1 }
            else if (tok ~ /^[A-Za-z_]/ && ang == 0 && tok != "for") last = tok
        } else if (tok == "impl" && (prev == "" || prev ~ /^([{}\];]|unsafe)$/)) {
            hdr = 1; hdr_def = 0; ang = 0; last = ""
        }
        if (tok == "{") {
            s = prev == "Self" ? impl_s : prev
            depth++
            if ((s in known) && prev2 !~ /^(struct|for|impl|>)$/ && !(prev == "Self" && impl_def)) {
                top++; lit_s[top] = s; lit_d[top] = depth; fpos = 1
            }
        } else if (tok == "}") {
            if (top > 0 && depth == lit_d[top]) top--
            depth--
            if (depth < impl_depth) { impl_s = ""; impl_def = 0; impl_depth = -1 }
        } else if (top > 0 && depth == lit_d[top]) {
            if (tok == ",") fpos = 1
            else { if (fpos && tok ~ /^[a-z_][a-z0-9_]*$/) cand = tok; fpos = 0 }
        }
        if (tok == "=" && prev2 == "." && prev ~ /^[a-z_]/ && cls == "code") any[prev]++
        prev2 = prev; prev = tok
    }
    END {
        for (key in at) {
            if (set[key]) continue
            split(key, q, "."); if (any[q[2]]) continue
            own = other["unit:" home[key], key] + 0
            rest = other["tests", key] + 0
            for (x in lib) if (x != home[key]) rest += other["unit:" x, key]
            e = other["examples", key] + 0
            printf "%-10s %-7s %-40s %-44s unit=%-3d tests=%-3d examples=%d\n", "unset", "field", key, at[key], own, rest, e
        }
    }' pass=1 "${files[@]}" pass=2 "${files[@]}" | sort -k3,3
