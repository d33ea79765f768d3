#!/usr/bin/env bash
# loc.sh prints the module's non-test Go lines outside bench/, per file
# and in total — the count a simplification reports before and after.
# Files git ignores are skipped; untracked ones count. Given a git ref,
# it prints each file's lines at that ref and in the tree, the delta,
# and the totals instead. Run it from anywhere inside the repository:
#
#	bash scripts/loc.sh
#	bash scripts/loc.sh origin/main
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# tree_counts prints "lines path" for each counted file in the tree.
tree_counts() {
	git ls-files --cached --others --exclude-standard -- '*.go' ':!*_test.go' ':!bench/' | sort -u |
		while IFS= read -r f; do
			[ -f "$f" ] || continue # tracked but deleted in the working tree
			printf '%d %s\n' "$(wc -l <"$f")" "$f"
		done
}

if [ $# -eq 0 ]; then
	total=0
	while read -r n f; do
		printf '%6d %s\n' "$n" "$f"
		total=$((total + n))
	done < <(tree_counts)
	printf '%6d total\n' "$total"
	exit 0
fi

ref=$1
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
	echo "loc.sh: $ref is not a commit" >&2
	exit 2
}
declare -A before after
while read -r n f; do after[$f]=$n; done < <(tree_counts)
while IFS= read -r f; do
	before[$f]=$(git show "$ref:$f" | wc -l)
done < <(git ls-tree -r --name-only "$ref" | grep '\.go$' | grep -v -e '_test\.go$' -e '^bench/')
printf '%6s %6s %6s %s\n' before after delta file
tb=0 ta=0
while IFS= read -r f; do
	b=${before[$f]:-0} a=${after[$f]:-0}
	printf '%6d %6d %+6d %s\n' "$b" "$a" $((a - b)) "$f"
	tb=$((tb + b)) ta=$((ta + a))
done < <(printf '%s\n' "${!before[@]}" "${!after[@]}" | sort -u)
printf '%6d %6d %+6d total\n' "$tb" "$ta" $((ta - tb))
