#!/usr/bin/env bash
# Checks `go test -v` logs against one section of the required-tests
# manifest, scripts/required-tests.txt. Run it from anywhere:
#
#	go test -v ./internal/cluster | tee cluster.log
#	scripts/check_required_tests.sh cluster cluster.log
#
# It fails when any log reports a skipped or failed test, or when a test the
# manifest lists under the section has no `--- PASS` line in the logs.
#
#	scripts/check_required_tests.sh -list zero-alloc
#
# prints the section's test names, one a line, so a CI step can build its
# `go test -run` pattern from the manifest instead of a second list.
set -euo pipefail
usage() {
	echo "usage: $0 <section> <log>... | $0 -list <section>" >&2
	exit 2
}
[ $# -ge 2 ] || usage
manifest="$(dirname "$0")/required-tests.txt"

# section_tests prints the tests listed under section $1.
section_tests() {
	local line current=''
	while read -r line; do
		line=${line%%#*}
		line=${line%"${line##*[![:space:]]}"} # trim trailing blanks
		case $line in
		'') continue ;;
		\[*\]) current=${line:1:${#line}-2}; continue ;;
		esac
		[ "$current" = "$1" ] && echo "$line"
	done <"$manifest"
	return 0
}

if [ "$1" = -list ]; then
	[ $# -eq 2 ] || usage
	tests=$(section_tests "$2")
	if [ -z "$tests" ]; then
		echo "no tests listed under [$2] in $manifest" >&2
		exit 2
	fi
	echo "$tests"
	exit 0
fi

section=$1
shift
status=0
if grep -h -e '--- SKIP' -e '--- FAIL' "$@" >&2; then
	echo "[$section] tests were skipped or failed" >&2
	status=1
fi

listed=0
while read -r name; do
	listed=$((listed + 1))
	if ! grep -qF -- "--- PASS: $name (" "$@"; then
		echo "[$section] required test $name did not pass" >&2
		status=1
	fi
done < <(section_tests "$section")

if [ "$listed" -eq 0 ]; then
	echo "no tests listed under [$section] in $manifest" >&2
	exit 2
fi
if [ "$status" -eq 0 ]; then
	echo "[$section] all $listed required tests passed, none skipped"
fi
exit "$status"
