#!/usr/bin/env bash
# Rust line counts for the workspace, split into project code and vendored
# stand-ins — the before/after figures a simplification change records.
#
# Usage:
#   scripts/loc.sh
#
# Prints two lines:
#   non-vendor rust lines: N   (*.rs under crates src tests examples)
#   vendor rust lines: N       (*.rs under vendor)

set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -type f -print0 2>/dev/null | xargs -0 cat | wc -l
}

echo "non-vendor rust lines: $(count crates src tests examples)"
echo "vendor rust lines: $(count vendor)"
