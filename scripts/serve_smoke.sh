#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the serving tier.
#
# Builds lmfao-serve, starts it on a small retailer dataset, hits every
# endpoint class asserting the expected status, and shuts the server down
# cleanly with SIGTERM. Exits non-zero on the first failed assertion or an
# unclean shutdown. Arguments pass through to lmfao-serve, so
#
#	sh scripts/serve_smoke.sh -shards 2 -durable "$DIR"
#
# smokes a two-shard WAL-backed session, and a second run over the same
# directory smokes its recovery.
set -eu

ADDR="127.0.0.1:18467"
BASE="http://$ADDR"
BIN="$(mktemp -d)/lmfao-serve"
LOG="$(mktemp)"

go build -o "$BIN" ./cmd/lmfao-serve

"$BIN" -dataset retailer -scale 0.002 -addr "$ADDR" "$@" >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Wait for the initial batch run to publish (healthz turns published:true).
i=0
until curl -sf "$BASE/healthz" 2>/dev/null | grep -q '"published":true'; do
  i=$((i + 1))
  if [ "$i" -gt 120 ]; then
    echo "server never became ready; log:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 1
done

fail=0
check() {
  # check METHOD PATH EXPECTED_STATUS [BODY]
  method="$1" path="$2" want="$3" body="${4:-}"
  if [ -n "$body" ]; then
    got=$(curl -s -o /dev/null -w '%{http_code}' -X "$method" -d "$body" "$BASE$path")
  else
    got=$(curl -s -o /dev/null -w '%{http_code}' -X "$method" "$BASE$path")
  fi
  if [ "$got" != "$want" ]; then
    echo "FAIL: $method $path = $got, want $want" >&2
    fail=1
  else
    echo "ok: $method $path = $got"
  fi
}

# Snapshot reads.
check GET /healthz 200
check GET /v1/meta 200
check GET /v1/epochs 200
check GET /v1/versions 200
check GET /v1/stats 200
check GET /v1/results/0 200
check GET '/v1/results/0?fresh=1' 200
check GET '/v1/lookup?query=0&key=' 200
# Error paths: out-of-range index is 404, not a panic.
check GET /v1/results/99999 404
check GET '/v1/lookup?query=99999&key=' 404
# Ad-hoc requery (compact wire syntax).
check POST /v1/requery 200 '{"queries":["smoke(SUM 1)"]}'
check POST /v1/requery 400 '{"queries":["nonsense"]}'
# A query that parses but does not validate (numeric group-by) is 400.
check POST /v1/requery 400 '{"queries":["bad(inventoryunits; SUM 1)"]}'
# Maintenance ingest: sync and async (Inventory: locn,dateid,ksn,units).
check POST /v1/apply 200 '{"updates":[{"relation":"Inventory","inserts":[[1,1,1,5]]}]}'
check POST '/v1/apply?mode=async' 202 '{"updates":[{"relation":"Inventory","inserts":[[1,1,2,5]]}]}'
check POST /v1/apply 400 '{"updates":[{"relation":"NoSuch","inserts":[[1]]}]}'
# A fractional key is refused, not truncated; a delete of an absent tuple
# conflicts with the data; a wrong method is 405.
check POST /v1/apply 400 '{"updates":[{"relation":"Inventory","inserts":[[1.5,1,1,5]]}]}'
check POST /v1/apply 409 '{"updates":[{"relation":"Inventory","deletes":[[999999,1,1,5]]}]}'
check DELETE /v1/apply 405
# A body over the server's 8 MiB limit is refused with 413.
BIG="$(mktemp)"
{ printf '{"updates":['; head -c 9000000 /dev/zero | tr '\0' ' '; printf ']}'; } >"$BIG"
check POST /v1/apply 413 "@$BIG"
rm -f "$BIG"
# A client that trickles its body (100 kB at 2 kB/s, about 50 s) holds it
# open past the server's 10 s read timeout and must be dropped: curl has to
# end well before its own 25 s deadline, which it reports as exit 28.
SLOW="$(mktemp)"
{ printf '{"updates":['; head -c 100000 /dev/zero | tr '\0' ' '; printf ']}'; } >"$SLOW"
start=$(date +%s)
rc=0
curl -s -o /dev/null --max-time 25 --limit-rate 2k -H 'Expect:' -X POST --data-binary "@$SLOW" "$BASE/v1/apply" || rc=$?
elapsed=$(($(date +%s) - start))
rm -f "$SLOW"
if [ "$rc" -eq 28 ] || [ "$elapsed" -ge 25 ]; then
  echo "FAIL: a trickled body held the connection for ${elapsed}s (curl exit $rc)" >&2
  fail=1
else
  echo "ok: trickled body dropped after ${elapsed}s"
fi
# Applications: every fit endpoint, plus the predictor error paths.
check POST /v1/models/linreg/fit 200
check POST /v1/models/polyreg/fit 200
check POST /v1/models/chowliu/fit 200
check POST /v1/models/cube/fit 200
check POST /v1/models/tree/fit 200
check POST /v1/models/nosuch/fit 404
check POST /v1/models/chowliu/predict 404
check POST /v1/models/linreg/predict 400 '{"row":{}}'

# Degraded read proof: the epoch header must be present on reads.
if ! curl -si "$BASE/v1/results/0" | grep -qi '^X-Lmfao-Epoch:'; then
  echo "FAIL: /v1/results/0 missing X-Lmfao-Epoch header" >&2
  fail=1
fi

# Clean shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
if ! wait "$PID"; then
  echo "FAIL: server exited non-zero on SIGTERM; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
trap - EXIT

if [ "$fail" -ne 0 ]; then
  echo "smoke test FAILED; server log:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "serve smoke test passed"
