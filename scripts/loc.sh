#!/bin/sh
# The line counter simplicity PRs quote: non-blank, non-`//` lines under each
# crate's src/ and benches/ (the root package's src/ included), every file
# counted up to its `#[cfg(test)] mod tests`. Usage: scripts/loc.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
find src crates/*/src crates/*/benches -name '*.rs' | xargs awk '
FNR == 1 { held = skip = 0; match(FILENAME, /(^|\/)(src|benches)\//); dir = substr(FILENAME, 1, RSTART + RLENGTH - 2) }
skip { next }
held { held = 0; if (/^mod tests/) { skip = 1; next } n[dir]++ }
/^#\[cfg\(test\)\]$/ { held = 1; next }
!/^[ \t]*$/ && !/^[ \t]*\/\// { n[dir]++ }
END { for (d in n) { printf "%-24s %6d\n", d, n[d] | "sort"; total += n[d] }
      close("sort"); printf "%-24s %6d\n", "total", total }'
