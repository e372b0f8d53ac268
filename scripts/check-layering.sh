#!/usr/bin/env bash
# The layering gate, runnable locally: the library modules below the
# session API (util, parallel, graph, coloring, flow, lp, centrality,
# dynamic) must not include the layers built on top of them (api,
# workload, eval, bench), graph/ — the substrate every solver and the
# dynamic edit model build on — includes nothing but util/, and the load
# harness (workload/) includes neither harness CLI layer (eval, bench).
# The CI `format` job runs exactly this script.
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

while IFS= read -r hit; do
  echo "check-layering: ${hit}: qsc/graph includes a module above util/" >&2
  violations=$((violations + 1))
done < <(grep -rnE "^[[:space:]]*#[[:space:]]*include[[:space:]]*[\"<]qsc/" \
           src/qsc/graph | grep -vE "[\"<]qsc/(graph|util)/" || true)

while IFS= read -r hit; do
  echo "check-layering: ${hit}: qsc/workload includes qsc/eval or qsc/bench" >&2
  violations=$((violations + 1))
done < <(grep -rnE "^[[:space:]]*#[[:space:]]*include[[:space:]]*[\"<]qsc/(eval|bench)/" \
           src/qsc/workload || true)

if [[ "$violations" -gt 0 ]]; then
  echo "check-layering: ${violations} upward include(s)" >&2
  exit 1
fi
echo "check-layering: no module under src/qsc/{$(IFS=,; echo "${lower[*]}")}" \
     "includes qsc/{api,workload,eval,bench}, qsc/graph includes only" \
     "qsc/{graph,util}, and qsc/workload includes neither qsc/eval nor" \
     "qsc/bench"
