#!/usr/bin/env bash
# Runs a list of tests by exact name and requires each one to report its
# own "--- PASS". go test exits 0 when -run matches nothing, so without
# this check a renamed or deleted test would drop out of a CI step
# silently.
#
# usage: bash .github/require-pass.sh [go test flags...] -- <packages...> -- <TestName...>
#
#   bash .github/require-pass.sh -race -count=1 -- ./internal/runstore/ -- TestJournalFixtureOpens
set -euo pipefail

usage() {
	echo "usage: $0 [go test flags...] -- <packages...> -- <TestName...>" >&2
	exit 2
}

flags=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do
	flags+=("$1")
	shift
done
[ $# -gt 0 ] || usage
shift
pkgs=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do
	pkgs+=("$1")
	shift
done
[ $# -gt 0 ] || usage
shift
names=("$@")
[ ${#pkgs[@]} -gt 0 ] && [ ${#names[@]} -gt 0 ] || usage

log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test ${flags[@]+"${flags[@]}"} -run "^($(IFS='|'; echo "${names[*]}"))\$" -v "${pkgs[@]}" | tee "$log"
for name in "${names[@]}"; do
	if ! grep -q "^--- PASS: $name (" "$log"; then
		echo "test $name did not run and pass" >&2
		exit 1
	fi
done
