#!/usr/bin/env bash
# loc.sh prints the module's non-test Go lines outside bench/, per file
# and in total — the count a simplification reports before and after.
# Files git ignores are skipped; untracked ones count. Run it from
# anywhere inside the repository:
#
#	bash scripts/loc.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
total=0
while IFS= read -r f; do
	[ -f "$f" ] || continue # tracked but deleted in the working tree
	n=$(wc -l <"$f")
	printf '%6d %s\n' "$n" "$f"
	total=$((total + n))
done < <(git ls-files --cached --others --exclude-standard -- '*.go' ':!*_test.go' ':!bench/' | sort -u)
printf '%6d total\n' "$total"
