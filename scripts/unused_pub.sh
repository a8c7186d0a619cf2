#!/usr/bin/env bash
# Prints every `pub fn` of the library crates whose name no other
# non-test Rust file uses, as `<file> <name>`, and exits 1 if any of them
# is missing from the keep list in DESIGN.md §6 ("Kept public functions").
#
# Usage: scripts/unused_pub.sh
#
# Users are the `.rs` files under crates/, src/, tests/, examples/ and
# benchmark/src/, minus test code: crates/*/tests/, `tests.rs` and
# `*_tests.rs` child modules, and everything from a file's
# `mod …tests {` block on. A name is used when it occurs there as a word,
# so the rule is by name: a common name such as `new` is never reported.
# The test-helper crate, the dependency shims and binaries (src/bin) are
# not swept, though binaries count as users.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One stripped copy of each user file, listed as `<file> <copy>`.
find crates src tests examples benchmark/src -name '*.rs' \
    -not -path 'crates/*/tests/*' -not -name 'tests.rs' -not -name '*_tests.rs' |
    grep -Ev '^crates/(noc-testutil|rand|serde|serde-derive|proptest)/' | sort |
    while read -r file; do
        copy="$tmp/$(echo "$file" | tr / _)"
        awk '/^ *mod [a-z_]*tests? *\{/ { exit } { print }' "$file" > "$copy"
        echo "$file $copy"
    done > "$tmp/map"

grep '^crates/[^ ]*/src/' "$tmp/map" | grep -v '/src/bin/' | while read -r file copy; do
    others=$(awk -v f="$file" '$1 != f { print $2 }' "$tmp/map")
    { grep -oE '^ *pub (const )?fn [a-z_0-9]+' "$copy" || true; } | awk '{ print $NF }' |
        sort -u | while read -r name; do
            # shellcheck disable=SC2086 # $others is a list of plain paths
            grep -qw -- "$name" $others || echo "$file $name"
        done
done > "$tmp/unused"
cat "$tmp/unused"

# The keep list: DESIGN.md's "Kept public functions" section, up to the
# next heading. Each kept name appears there in backticks.
sed -n '/^### Kept public functions/,/^#/p' DESIGN.md > "$tmp/keep"
status=0
while read -r file name; do
    if ! grep -qF -- "\`$name\`" "$tmp/keep"; then
        echo "unused_pub: $file: \`$name\` has no caller outside its file and is not on DESIGN.md's keep list" >&2
        status=1
    fi
done < "$tmp/unused"
exit "$status"
