#!/usr/bin/env bash
# Checks `go test -v` logs against one section of the required-tests
# manifest, scripts/required-tests.txt. Run it from anywhere:
#
#	go test -v ./internal/cluster | tee cluster.log
#	scripts/check_required_tests.sh cluster cluster.log
#
# It fails when any log reports a skipped or failed test, or when a test the
# manifest lists under the section has no `--- PASS` line in the logs.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 <section> <log>..." >&2
	exit 2
fi
section=$1
shift
manifest="$(dirname "$0")/required-tests.txt"

status=0
if grep -h -e '--- SKIP' -e '--- FAIL' "$@" >&2; then
	echo "[$section] tests were skipped or failed" >&2
	status=1
fi

current='' listed=0
while read -r line; do
	line=${line%%#*}
	line=${line%"${line##*[![:space:]]}"} # trim trailing blanks
	case $line in
	'') continue ;;
	\[*\]) current=${line:1:${#line}-2}; continue ;;
	esac
	[ "$current" = "$section" ] || continue
	listed=$((listed + 1))
	if ! grep -qF -- "--- PASS: $line (" "$@"; then
		echo "[$section] required test $line did not pass" >&2
		status=1
	fi
done <"$manifest"

if [ "$listed" -eq 0 ]; then
	echo "no tests listed under [$section] in $manifest" >&2
	exit 2
fi
if [ "$status" -eq 0 ]; then
	echo "[$section] all $listed required tests passed, none skipped"
fi
exit "$status"
