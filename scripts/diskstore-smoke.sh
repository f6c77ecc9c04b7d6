#!/usr/bin/env bash
# diskstore-smoke.sh: end-to-end check of the disk-backed store pipeline.
#
# Generates LUBM data, bulk-loads one university into a .lds store with
# `lusail load`, serves the same dataset twice — once from memory, once from
# the disk store with a small block cache — and asserts:
#
#   1. `lusail load` builds and self-verifies the store,
#   2. both endpoints answer the same SPARQL queries identically — a join
#      in JSON and in TSV, a DISTINCT ... ORDER BY ... LIMIT, a COUNT(*)
#      ... GROUP BY and an ASK (the acceptance bar for backend
#      interchangeability; unordered answers are compared as sorted rows),
#   3. a truncated store file is rejected at startup rather than served,
#   4. predicate statistics agree between the two backends (the /summary
#      endpoint both serve to the federation's catalog).
#
# Requires: go, curl, jq. Used by CI and runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building =="
go build -o "$WORK/bin/" ./cmd/lusail

echo "== generating LUBM data =="
"$WORK/bin/lusail" datagen -benchmark lubm -universities 2 -scale 20 -out "$WORK/data" >/dev/null

echo "== bulk load =="
"$WORK/bin/lusail" load -out "$WORK/u0.lds" -verify "$WORK/data/university0.nt"

echo "== booting memory and disk endpoints over the same dataset =="
"$WORK/bin/lusail" endpoint -addr 127.0.0.1:18181 -name u0mem -data "$WORK/data/university0.nt" -quiet &
"$WORK/bin/lusail" endpoint -addr 127.0.0.1:18182 -name u0disk -store "disk:$WORK/u0.lds" -cache 4 -quiet &

wait_http() {
    for _ in $(seq 1 100); do
        if curl -fsS -o /dev/null "$@"; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: timeout waiting for $*" >&2
    return 1
}
wait_http -G --data-urlencode 'query=ASK { ?s ?p ?o }' http://127.0.0.1:18181/sparql
wait_http -G --data-urlencode 'query=ASK { ?s ?p ?o }' http://127.0.0.1:18182/sparql

QUERY='PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?X ?Y ?Z WHERE {
  ?X rdf:type ub:GraduateStudent .
  ?Y rdf:type ub:FullProfessor .
  ?Z rdf:type ub:GraduateCourse .
  ?X ub:advisor ?Y .
  ?Y ub:teacherOf ?Z .
  ?X ub:takesCourse ?Z .
}'

# Normalizers: an answer on stdin, put in an order both backends share.
sorted_bindings() { jq -S '.results.bindings | sort_by(tostring)'; }
bindings() { jq -S '.results.bindings'; }
sorted_tsv() { IFS= read -r head; printf '%s\n' "$head"; LC_ALL=C sort; }
boolean() { jq '.boolean'; }

# agree NAME ACCEPT QUERY NORMALIZER: both endpoints answer QUERY in the
# format ACCEPT asks for, and the answers agree once normalized; the
# memory endpoint's normalized answer is left in $WORK/NAME.
agree() {
    local name=$1 accept=$2 query=$3 normalize=$4
    curl -fsS -G -H "Accept: $accept" --data-urlencode "query=$query" \
        http://127.0.0.1:18181/sparql | "$normalize" >"$WORK/$name"
    curl -fsS -G -H "Accept: $accept" --data-urlencode "query=$query" \
        http://127.0.0.1:18182/sparql | "$normalize" >"$WORK/$name.disk"
    diff -u "$WORK/$name" "$WORK/$name.disk" \
        || { echo "FAIL: backends answer $name differently"; exit 1; }
}

JSON=application/sparql-results+json
echo "== identical answers across backends =="
agree join.json "$JSON" "$QUERY" sorted_bindings
rows=$(jq 'length' "$WORK/join.json")
[ "$rows" -gt 0 ] || { echo "FAIL: memory endpoint returned no bindings"; exit 1; }
echo "join (JSON): backends agree on $rows rows"

agree join.tsv text/tab-separated-values "$QUERY" sorted_tsv
[ "$(wc -l <"$WORK/join.tsv")" -eq "$((rows + 1))" ] \
    || { echo "FAIL: TSV answer is not the JSON answer's $rows rows"; cat "$WORK/join.tsv"; exit 1; }
echo "join (TSV): backends agree on $rows rows"

agree distinct "$JSON" 'PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT DISTINCT ?Y ?Z WHERE { ?X ub:advisor ?Y . ?Y ub:teacherOf ?Z }
ORDER BY ?Y DESC(?Z) OFFSET 1 LIMIT 4' bindings
[ "$(jq 'length' "$WORK/distinct")" -eq 4 ] \
    || { echo "FAIL: DISTINCT ... OFFSET 1 LIMIT 4 did not answer 4 rows"; cat "$WORK/distinct"; exit 1; }
echo "DISTINCT ... ORDER BY ... OFFSET ... LIMIT: backends agree"

agree group "$JSON" 'PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?Y (COUNT(*) AS ?n) WHERE { ?X ub:advisor ?Y } GROUP BY ?Y' sorted_bindings
jq -e 'length > 1 and all(.[]; .n.value | tonumber > 0)' "$WORK/group" >/dev/null \
    || { echo "FAIL: COUNT(*) ... GROUP BY answered no counts"; cat "$WORK/group"; exit 1; }
echo "COUNT(*) ... GROUP BY: backends agree on $(jq 'length' "$WORK/group") groups"

agree ask "$JSON" 'PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
ASK { ?X ub:advisor ?Y . ?Y ub:teacherOf ?Z . ?X ub:takesCourse ?Z }' boolean
[ "$(cat "$WORK/ask")" = true ] || { echo "FAIL: ASK answered $(cat "$WORK/ask")"; exit 1; }
echo "ASK: backends agree"

echo "== predicate statistics agree =="
curl -fsS http://127.0.0.1:18181/summary >"$WORK/mem-summary.json"
curl -fsS http://127.0.0.1:18182/summary >"$WORK/disk-summary.json"
jq -S 'del(.endpoint, .built_at, .build_duration_ns)' "$WORK/mem-summary.json" >"$WORK/mem-summary.sorted"
jq -S 'del(.endpoint, .built_at, .build_duration_ns)' "$WORK/disk-summary.json" >"$WORK/disk-summary.sorted"
diff -u "$WORK/mem-summary.sorted" "$WORK/disk-summary.sorted" \
    || { echo "FAIL: backends report different summaries"; exit 1; }

echo "== truncated store rejected at startup =="
size=$(wc -c <"$WORK/u0.lds")
head -c "$((size - 16))" "$WORK/u0.lds" >"$WORK/truncated.lds"
if "$WORK/bin/lusail" endpoint -addr 127.0.0.1:18183 -name broken \
    -store "disk:$WORK/truncated.lds" -quiet 2>"$WORK/trunc.err"; then
    echo "FAIL: endpoint served a truncated store"
    exit 1
fi
grep -qi 'truncated\|checksum\|outside file' "$WORK/trunc.err" \
    || { echo "FAIL: truncation error not diagnosed"; cat "$WORK/trunc.err"; exit 1; }

echo "PASS: diskstore smoke"
