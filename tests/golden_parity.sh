#!/usr/bin/env bash
# Golden parity: regenerate the fig8 overhead grid (controller and
# engine cells), the ablation grid (the replayTrace path), a
# graphene_serve run (8 pattern tenants and one ACT-trace tenant:
# session JSONL plus checkpoint hashes) and the
# stdout of the tracker table drivers (secVI_trackers,
# fig2_misra_gries_walkthrough, table4_table_sizes), and compare every
# artifact byte for byte with tests/data/golden/.
#
#   tests/golden_parity.sh <build-dir>            # check
#   tests/golden_parity.sh <build-dir> --update   # rewrite the goldens
#
# Only rewrite the goldens in a change that is meant to alter results,
# and say so in its description; a refactor must pass the check as is.
set -euo pipefail

build=$(cd "$1" && pwd)
golden=$(cd "$(dirname "$0")/data/golden" && pwd)
update=${2:-}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$build/bench/fig8_overhead" --windows 0.005 --jobs 4 --no-progress \
    --json fig8_overhead.jsonl > /dev/null 2>&1
"$build/bench/ablation_scheduler" --windows 0.005 --no-progress \
    --json ablation_scheduler.jsonl > /dev/null 2>&1
# The trace tenant reads a committed ACT trace through a relative path
# (the path is part of its checkpoint fingerprint), pinning chunked
# ingest and the trace-position bytes of its checkpoints.
cp "$golden/serve_trace.act" serve_trace.act
"$build/tools/serve/graphene_serve" --sessions 8 --duration 0.05 \
    --ckpt-every 4 --trace serve_trace.act --out serve > /dev/null 2>&1
(cd serve/ckpt && sha256sum ./*.gckp) > serve/ckpt.sha256
tables=(secVI_trackers fig2_misra_gries_walkthrough table4_table_sizes)
for t in "${tables[@]}"; do
    "$build/bench/$t" > "$t.txt" 2> /dev/null
done

artifacts=(fig8_overhead.jsonl ablation_scheduler.jsonl
           serve/ckpt.sha256)
for t in "${tables[@]}"; do
    artifacts+=("$t.txt")
done
for f in serve/session_*.jsonl; do
    artifacts+=("$f")
done

if [[ "$update" == "--update" ]]; then
    mkdir -p "$golden/serve"
    for f in "${artifacts[@]}"; do
        cp "$f" "$golden/$f"
    done
    echo "golden_parity: rewrote ${#artifacts[@]} golden(s)"
    exit 0
fi

expected=$(cd "$golden" && ls fig8_overhead.jsonl \
    ablation_scheduler.jsonl serve/ckpt.sha256 serve/session_*.jsonl \
    "${tables[@]/%/.txt}" | wc -l)
if [[ ${#artifacts[@]} -ne $expected ]]; then
    echo "golden_parity: ${#artifacts[@]} artifact(s), $expected golden(s)"
    exit 1
fi
status=0
for f in "${artifacts[@]}"; do
    if ! cmp -s "$f" "$golden/$f"; then
        echo "golden_parity: $f differs from tests/data/golden/$f"
        status=1
    fi
done
[[ $status -eq 0 ]] && echo "golden_parity: ${#artifacts[@]} artifact(s) identical"
exit $status
