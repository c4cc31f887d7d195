#!/usr/bin/env bash
# Non-test Rust lines: the numbers a simplification PR quotes before and
# after (`just loc`).
#
#   scripts/loc.sh           per-crate totals (crates/*, the vendor/
#                            packages the root Cargo.toml lists in
#                            workspace.members, the root package; a
#                            vendor/ directory outside the build is not
#                            counted), the ten largest files under
#                            crates/*/src and the public field count of
#                            every `*Config` and `*Options` struct (the
#                            settings a caller can turn); tests/ and
#                            examples/ directories are not counted
#   scripts/loc.sh FILE...   one number: the non-test lines of FILEs
#
# Every line counts, blank and comment lines included, except the lines
# of an item that carries `#[cfg(test)]`, at any indentation: a
# `mod tests`, a test-only fn, struct, field, statement or `use`. Such an
# item runs from the doc comments and attributes stacked directly above
# the attribute to the `}` that closes its first brace, or to the `;` or
# `,` that ends it at bracket depth 0, whichever comes first. Brackets in
# strings, char literals and comments are not counted. A file that ends
# inside a test item means the scan lost its place, and fails the script.
# A file whose parent module declares it under `#[cfg(test)]` (an
# out-of-line `#[cfg(test)] mod NAME;`), or whose parent is such a file,
# is test code: it counts 0. CI holds scripts/fixtures/loc_fixture.rs
# and the module tree under scripts/fixtures/loc_test_module/ to their
# exact counts.
set -euo pipefail

read -r -d '' count_lines <<'AWK' || true
function scan(s,   i, c, len) {
    len = length(s)
    for (i = 1; i <= len; i++) {
        c = substr(s, i, 1)
        if (incomment) {
            if (c == "*" && substr(s, i + 1, 1) == "/") { incomment--; i++ }
            else if (c == "/" && substr(s, i + 1, 1) == "*") { incomment++; i++ }
            continue
        }
        if (instring) {
            if (c == "\\") i++
            else if (c == "\"") instring = 0
            continue
        }
        if (c == "/" && substr(s, i + 1, 1) == "/") return
        if (c == "/" && substr(s, i + 1, 1) == "*") { incomment = 1; i++; continue }
        if (c == "\"") { instring = 1; continue }
        if (c == "'") {
            # A char literal ('x', '\n', '\u{7b}'); otherwise a lifetime.
            if (substr(s, i + 1, 1) == "\\") {
                for (i += 2; i < len && substr(s, i + 1, 1) != "'"; i++) {}
                i++
            } else if (substr(s, i + 2, 1) == "'") {
                i += 2
            }
            continue
        }
        if (c == "{" || c == "(" || c == "[") { depth++; continue }
        if (c == "}" || c == ")" || c == "]") {
            depth--
            if (c == "}" && depth <= 0) { skipping = 0; return }
            continue
        }
        if ((c == ";" || c == ",") && depth == 0) { skipping = 0; return }
    }
}
function finish() {
    if (file == "") return
    if (skipping) {
        printf "loc.sh: %s ends inside a #[cfg(test)] item\n", file > "/dev/stderr"
        lost = 1
    }
    print n, file
}
FNR == 1 { finish(); file = FILENAME; n = 0; above = 0; skipping = 0 }
skipping { scan($0); next }
/^[ \t]*#\[cfg\(test\)\]/ {
    n -= above
    above = 0
    skipping = 1; depth = 0; instring = 0; incomment = 0
    rest = $0
    sub(/^[ \t]*#\[cfg\(test\)\]/, "", rest)
    scan(rest)
    next
}
{
    n++
    above = /^[ \t]*(\/\/\/|#\[)/ ? above + 1 : 0
}
END { finish(); exit lost }
AWK

# How the file declares module `name`: exit 0 under `#[cfg(test)]` (on
# the line itself or among the attributes stacked above it), 1 without
# it, 2 not at all.
read -r -d '' declares_mod <<'AWK' || true
BEGIN { found = 2 }
/^[ \t]*#\[cfg\(test\)\]/ { cfg_test = 1 }
{
    item = $0
    sub(/^[ \t]*(#\[[^]]*\][ \t]*)*/, "", item)
    if (item ~ "^(pub(\\([a-z]+\\))?[ \t]+)?mod[ \t]+" name "[ \t]*;") { found = cfg_test ? 0 : 1; exit }
    if (item != "" && item !~ /^\/\//) cfg_test = 0
}
END { exit found }
AWK

# Whether FILE is test code as a whole: its parent module (`D.rs`,
# `D/mod.rs`, `D/lib.rs` or `D/main.rs` for `D/NAME.rs` or
# `D/NAME/mod.rs`) declares it under `#[cfg(test)]`, or is itself such
# a file.
test_module() {
    local dir name parent status
    dir=$(dirname "$1")
    name=$(basename "$1" .rs)
    case $name in
        lib | main) return 1 ;;
        mod) name=$(basename "$dir") dir=$(dirname "$dir") ;;
    esac
    for parent in "$dir.rs" "$dir/mod.rs" "$dir/lib.rs" "$dir/main.rs"; do
        [ -f "$parent" ] || continue
        status=0
        awk -v name="$name" "$declares_mod" "$parent" || status=$?
        case $status in
            0) return 0 ;;
            1) test_module "$parent"; return ;;
        esac
    done
    return 1
}

# Per-file counts ("n path") of the given .rs files.
count_files() {
    local f rest=()
    for f in "$@"; do
        if test_module "$f"; then echo "0 $f"; else rest+=("$f"); fi
    done
    [ ${#rest[@]} -eq 0 ] || awk "$count_lines" "${rest[@]}"
}

# Per-file counts of every .rs file under the given paths.
per_file() {
    local files
    mapfile -d '' files < <(find "$@" -name '*.rs' -print0)
    count_files "${files[@]}"
}

if [ $# -gt 0 ]; then
    count_files "$@" | awk '{ n += $1 } END { print n + 0 }'
    exit
fi

cd "$(dirname "$0")/.."
printf '%-22s %8s\n' crate 'src LoC'
total=0
vendored=$(awk '/^members *= *\[/ { on = 1 } on { print } on && /\]/ { exit }' Cargo.toml \
    | grep -o '"vendor/[^"]*"' | tr -d '"' || true)
for d in crates/* $vendored .; do
    [ -d "$d/src" ] || continue
    n=$(per_file "$d/src" | awk '{ n += $1 } END { print n + 0 }')
    printf '%-22s %8d\n' "$(basename "$(cd "$d" && pwd)")" "$n"
    total=$((total + n))
done
printf '%-22s %8d\n\n' total "$total"
printf '%-46s %8s\n' 'largest files' 'src LoC'
per_file crates/*/src | sort -rn | awk 'NR <= 10 { printf "%-46s %8d\n", $2, $1 } END { print "" }'
printf '%-22s %8s\n' 'settings struct' 'pub fields'
grep -rn --include='*.rs' -E '^pub struct [A-Za-z]*(Config|Options)\b' crates src \
    | while IFS=: read -r file line decl; do
        name=$(echo "$decl" | sed -E 's/^pub struct ([A-Za-z]+).*/\1/')
        n=$(awk -v start="$line" 'NR>start && /^}/{exit} NR>start && /^    pub [a-z0-9_]+:/{n++} END{print n+0}' "$file")
        printf '%-22s %8d\n' "$name" "$n"
    done
