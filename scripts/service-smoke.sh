#!/usr/bin/env bash
# service-smoke.sh: end-to-end check of the lusaild service tier.
#
# Boots two real `lusail endpoint` processes over generated LUBM data,
# starts `lusail serve` in front of them with a tight quota for the
# "bronze" tenant, and asserts:
#
#   1. a SPARQL protocol query streams back 200 with valid
#      sparql-results+json and non-empty bindings,
#   2. an immediate repeat is answered from the result cache
#      (X-Lusail-Cache: result-hit), and a repeat after the result TTL is
#      planned and run again (no result hit, non-empty CSV),
#   3. an ASK is answered with a JSON "boolean", and an XML SELECT with a
#      complete sparql-results document,
#   4. a burst past the bronze tenant's rate quota yields structured 429
#      bodies whose warnings carry phase "admission",
#   5. SIGTERM drains the daemon cleanly (exit 0).
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
"$WORK/bin/lusail" datagen -benchmark lubm -universities 2 -out "$WORK/data" >/dev/null

echo "== booting endpoints =="
"$WORK/bin/lusail" endpoint -addr 127.0.0.1:18081 -name u0 -data "$WORK/data/university0.nt" -quiet &
"$WORK/bin/lusail" endpoint -addr 127.0.0.1:18082 -name u1 -data "$WORK/data/university1.nt" -quiet &

wait_http() {
    for _ in $(seq 1 100); do
        if curl -fsS -o /dev/null "$@"; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: timeout waiting for $*" >&2
    return 1
}
wait_http -G --data-urlencode 'query=ASK { ?s ?p ?o }' http://127.0.0.1:18081/sparql
wait_http -G --data-urlencode 'query=ASK { ?s ?p ?o }' http://127.0.0.1:18082/sparql

echo "== booting lusail serve =="
# The short result TTL lets the smoke observe the result cache both ways:
# an immediate repeat is a result hit, a repeat after the TTL expires is
# planned and run again.
"$WORK/bin/lusail" serve -addr 127.0.0.1:18094 \
    -endpoint u0=http://127.0.0.1:18081/sparql \
    -endpoint u1=http://127.0.0.1:18082/sparql \
    -result-cache-ttl 300ms \
    -tenant 'bronze=1:1:4:' &
LUSAILD=$!
wait_http http://127.0.0.1:18094/healthz

QUERY='PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?X WHERE {
  ?X rdf:type ub:GraduateStudent .
  ?X ub:undergraduateDegreeFrom <http://www.University0.edu> .
}'

echo "== smoke query (streamed JSON) =="
curl -fsS -G --data-urlencode "query=$QUERY" -D "$WORK/headers1" \
    http://127.0.0.1:18094/sparql >"$WORK/result1.json"
jq -e '.results.bindings | length > 0' "$WORK/result1.json" >/dev/null \
    || { echo "FAIL: smoke query returned no bindings"; cat "$WORK/result1.json"; exit 1; }
if grep -qi 'X-Lusail-Cache: result-hit' "$WORK/headers1"; then
    echo "FAIL: first query should not be a result-cache hit"; cat "$WORK/headers1"; exit 1
fi

echo "== immediate repeat (result cache hit) =="
curl -fsS -G --data-urlencode "query=$QUERY" -D "$WORK/headers2" \
    http://127.0.0.1:18094/sparql >/dev/null
grep -qi 'X-Lusail-Cache: result-hit' "$WORK/headers2" \
    || { echo "FAIL: immediate repeat should hit the result cache"; cat "$WORK/headers2"; exit 1; }

echo "== repeat after result TTL (result cache miss, CSV) =="
sleep 0.5
curl -fsS -G --data-urlencode "query=$QUERY" -H 'Accept: text/csv' -D "$WORK/headers3" \
    http://127.0.0.1:18094/sparql >"$WORK/result3.csv"
if grep -qi 'X-Lusail-Cache: result-hit' "$WORK/headers3"; then
    echo "FAIL: a repeat after the result TTL should not be a result-cache hit"; cat "$WORK/headers3"; exit 1
fi
[ -s "$WORK/result3.csv" ] || { echo "FAIL: CSV response empty"; exit 1; }

echo "== ASK (JSON boolean) =="
ASK='PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
ASK { ?X ub:undergraduateDegreeFrom <http://www.University0.edu> }'
curl -fsS -G --data-urlencode "query=$ASK" http://127.0.0.1:18094/sparql >"$WORK/ask.json"
jq -e '.boolean == true' "$WORK/ask.json" >/dev/null \
    || { echo "FAIL: ASK did not answer a JSON boolean true"; cat "$WORK/ask.json"; exit 1; }

echo "== XML SELECT =="
curl -fsS -G --data-urlencode "query=$QUERY LIMIT 3" -H 'Accept: application/sparql-results+xml' \
    http://127.0.0.1:18094/sparql >"$WORK/result.xml"
grep -q 'sparql-results#' "$WORK/result.xml" \
    || { echo "FAIL: XML answer lacks the sparql-results namespace"; cat "$WORK/result.xml"; exit 1; }
grep -q '</sparql>$' "$WORK/result.xml" \
    || { echo "FAIL: XML answer is not a complete document"; cat "$WORK/result.xml"; exit 1; }

echo "== quota burst (structured 429s) =="
oks=0; throttled=0
for i in $(seq 1 5); do
    code=$(curl -sS -G --data-urlencode "query=$QUERY" \
        -H 'X-Lusail-Tenant: bronze' -o "$WORK/burst$i.json" \
        -w '%{http_code}' http://127.0.0.1:18094/sparql)
    case "$code" in
    200) oks=$((oks + 1)) ;;
    429)
        throttled=$((throttled + 1))
        jq -e '.warnings[0].phase == "admission" and (.tenant == "bronze")' \
            "$WORK/burst$i.json" >/dev/null \
            || { echo "FAIL: 429 body not structured"; cat "$WORK/burst$i.json"; exit 1; }
        ;;
    *) echo "FAIL: unexpected status $code"; cat "$WORK/burst$i.json"; exit 1 ;;
    esac
done
[ "$oks" -ge 1 ] || { echo "FAIL: no request within quota succeeded"; exit 1; }
[ "$throttled" -ge 1 ] || { echo "FAIL: burst past rate 1/burst 1 was never throttled"; exit 1; }
echo "burst: $oks ok, $throttled throttled with structured bodies"

echo "== metrics visible =="
curl -fsS http://127.0.0.1:18094/metrics | grep -q 'lusail_result_cache_hits' \
    || { echo "FAIL: result cache metrics missing from /metrics"; exit 1; }

echo "== graceful drain =="
kill -TERM "$LUSAILD"
if ! wait "$LUSAILD"; then
    echo "FAIL: lusail serve exited non-zero on SIGTERM"
    exit 1
fi

echo "PASS: service smoke"
