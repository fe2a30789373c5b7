#!/usr/bin/env bash
# The design-side inventory every ROADMAP re-anchor recomputes by hand:
# non-test Go lines per package and in total outside benchmark/, test
# lines, the size of the two documents, the root Config's field count and
# the exported surface of the two packages the query path is built from.
# Run from anywhere inside the repository; prints, changes nothing.
set -euo pipefail
cd "$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"

lines() { if [ "$#" -eq 0 ]; then echo 0; else cat "$@" | wc -l; fi; }

echo "non-test Go lines per package (outside benchmark/):"
git ls-files '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$' |
	while read -r f; do echo "$(wc -l <"$f") $(dirname "$f")"; done |
	awk '{n[$2] += $1} END {for (d in n) printf "  %6d  %s\n", n[d], d}' | sort -k1,1nr
# shellcheck disable=SC2046
echo "non-test Go lines outside benchmark/: $(lines $(git ls-files '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$'))"
# shellcheck disable=SC2046
echo "test Go lines outside benchmark/:     $(lines $(git ls-files '*_test.go' | grep -v '^benchmark/'))"
# shellcheck disable=SC2046
echo "benchmark/ Go lines:                  $(lines $(git ls-files 'benchmark/*.go'))"
echo "DESIGN.md lines: $(lines DESIGN.md)   README.md lines: $(lines README.md)"

# Fields of the root Config: the lines of the struct body that declare one.
echo "Config fields: $(awk '/^type Config struct \{/{on=1; next} on && /^}/{exit} on && /^\t[A-Z][A-Za-z0-9]* /{n++} END{print n+0}' holistic.go)"

# Exported surface: package-level declarations as go doc lists them, plus
# exported methods.
for pkg in column query; do
	decls=$(go doc -short "./internal/$pkg" | wc -l)
	# shellcheck disable=SC2046
	methods=$(cat $(ls internal/$pkg/*.go | grep -v '_test\.go$') | grep -cE '^func \([^)]*\) [A-Z]' || true)
	# shellcheck disable=SC2046
	view=$(cat $(ls internal/$pkg/*.go | grep -v '_test\.go$') | grep -cE '^func \(w View\) [A-Z]' || true)
	printf 'internal/%s exported names: %d (%d declarations + %d methods' "$pkg" "$((decls + methods))" "$decls" "$methods"
	if [ "$view" -gt 0 ]; then printf ', %d of them on View' "$view"; fi
	echo ")"
done
