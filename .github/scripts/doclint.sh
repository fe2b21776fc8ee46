#!/usr/bin/env bash
# Keeps DESIGN.md a description of the code as it stands. Fails when the
# file is over its line budget, or when a `##` heading names a file path in
# backticks that does not exist. A backticked token is a path when it holds
# a slash or ends in a file extension; it resolves from the repository root,
# then from internal/.
#
#   doclint.sh            (from the repository root)
set -euo pipefail

doc=DESIGN.md
budget=900
status=0

lines=$(wc -l <"$doc")
if [ "$lines" -gt "$budget" ]; then
  echo "doclint: $doc is $lines lines, over its budget of $budget" >&2
  status=1
fi

while IFS= read -r heading; do
  while IFS= read -r token; do
    if [[ "$token" != */* && ! "$token" =~ \.[a-z]+$ ]]; then
      continue
    fi
    if [ ! -e "$token" ] && [ ! -e "internal/$token" ]; then
      echo "doclint: $doc heading names a missing path '$token': $heading" >&2
      status=1
    fi
  done < <(grep -o '`[^`]*`' <<<"$heading" | tr -d '`')
done < <(grep '^## ' "$doc")

exit "$status"
