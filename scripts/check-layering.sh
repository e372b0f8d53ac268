#!/usr/bin/env bash
# The layering gate, runnable locally: the library modules below the
# session API (util, parallel, graph, coloring, flow, lp, centrality,
# dynamic) must not include the layers built on top of them (api,
# workload, eval, bench). The CI `format` job runs exactly this script.
#
#   scripts/check-layering.sh
set -euo pipefail
cd "$(dirname "$0")/.."

lower=(util parallel graph coloring flow lp centrality dynamic)
upper='api|workload|eval|bench'

violations=0
for module in "${lower[@]}"; do
  while IFS= read -r hit; do
    echo "check-layering: ${hit}: lower module qsc/${module} includes an" \
         "upper layer" >&2
    violations=$((violations + 1))
  done < <(grep -rnE "^[[:space:]]*#[[:space:]]*include[[:space:]]*[\"<]qsc/(${upper})/" \
             "src/qsc/${module}" || true)
done

if [[ "$violations" -gt 0 ]]; then
  echo "check-layering: ${violations} upward include(s)" >&2
  exit 1
fi
echo "check-layering: no module under src/qsc/{$(IFS=,; echo "${lower[*]}")}" \
     "includes qsc/{api,workload,eval,bench}"
