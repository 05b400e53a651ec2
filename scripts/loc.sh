#!/usr/bin/env bash
# Counts the workspace's Rust lines, split into non-test and test.
#
#   scripts/loc.sh          # the tracked files of the working tree
#   scripts/loc.sh REV      # the files of a commit, e.g. HEAD~1
#
# Skips crates/vendor/ (the local dependency stubs) and e2ebench/ (a
# workspace of its own). A file is all test when it lies under a tests/,
# benches/ or examples/ directory, or is a tests.rs under src/. In any
# other file the test lines start at the first column-0 `#[cfg(test)]`
# that opens a `mod … {` body and run to the end of the file; a
# `#[cfg(test)] mod tests;` declaration opens no body (its body is a
# tests.rs of its own), so it starts nothing.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
rev=${1:-}
if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" | grep '\.rs$')
else
    files=$(git ls-files -- '*.rs')
fi

# Prints "<non-test lines> <test lines>" of the file on stdin.
split() {
    awk -v path="$1" '
        BEGIN {
            all_test = path ~ /(^|\/)(tests|benches|examples)\// ||
                       path ~ /(^|\/)src\/(.*\/)?tests\.rs$/
        }
        all_test || in_test { t++; next }
        pending && /^mod [A-Za-z0-9_]+ *\{/ { in_test = 1; pending = 0; t += 2; next }
        pending { n++; pending = 0 }
        /^#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
        { n++ }
        END { print n + pending, t + 0 }
    '
}

nontest=0
test=0
for f in $files; do
    case "$f" in
        crates/vendor/* | e2ebench/*) continue ;;
    esac
    if [ -n "$rev" ]; then
        read -r a b < <(git show "$rev:$f" | split "$f")
    else
        read -r a b < <(split "$f" < "$f")
    fi
    nontest=$((nontest + a))
    test=$((test + b))
done
echo "non-test $nontest"
echo "test $test"
