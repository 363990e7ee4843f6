#!/usr/bin/env bash
# Docs-drift guard, both directions: every flag cmd/neurocardd defines must
# be documented in README.md, and every README flag-table row (| `-name` |)
# must name a flag the daemon still defines. The daemon is the system's
# public surface, so a flag that exists only in --help, or a table row for a
# removed flag, is a doc bug. Run from the repo root; CI runs it in the lint
# job.
set -euo pipefail
cd "$(dirname "$0")/.."

main=cmd/neurocardd/main.go
readme=README.md

# Flag names as the daemon registers them: flag.String("name", ...) etc.
flags=$(grep -oE 'flag\.(String|Int|Bool|Duration|Float64)\("[a-z0-9-]+"' "$main" |
  sed -E 's/.*\("([a-z0-9-]+)"/\1/' | sort -u)

if [ -z "$flags" ]; then
  echo "check_docs_drift: no flags parsed from $main — extraction regex drifted" >&2
  exit 1
fi

missing=0
for f in $flags; do
  # Documented means the literal `-flag` appears in README (table cell,
  # backticks, or prose). Word-boundary match so -fuse-batch doesn't
  # satisfy -fuse.
  if ! grep -qE -- "-$f([^a-z0-9-]|$)" "$readme"; then
    echo "undocumented daemon flag: -$f (add it to $readme)" >&2
    missing=1
  fi
done

# Table rows whose first cell is a flag: each must still exist.
rows=$(grep -oE '^\| `-[a-z0-9-]+`' "$readme" | sed -E 's/^\| `-([a-z0-9-]+)`/\1/' | sort -u)
stale=0
for f in $rows; do
  if ! grep -qxF -- "$f" <<<"$flags"; then
    echo "stale flag table row: -$f (cmd/neurocardd defines no such flag; remove it from $readme)" >&2
    stale=1
  fi
done

count=$(echo "$flags" | wc -l)
if [ "$missing" -ne 0 ]; then
  echo "check_docs_drift: FAIL — $readme is missing daemon flags (of $count total)" >&2
fi
if [ "$stale" -ne 0 ]; then
  echo "check_docs_drift: FAIL — $readme tabulates flags the daemon no longer defines" >&2
fi
if [ "$missing" -ne 0 ] || [ "$stale" -ne 0 ]; then
  exit 1
fi
echo "check_docs_drift: OK — all $count cmd/neurocardd flags documented in $readme, no stale table rows"
