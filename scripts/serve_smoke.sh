#!/usr/bin/env bash
# End-to-end smoke of the multi-index TCP serving layer: one `pmlsh serve`
# process with two attached smoke datasets, driven over a raw TCP
# connection (bash /dev/tcp) through USE / QUERY / AUTH / REINDEX / QUIT.
# CI runs this after the release build; locally:
#
#   PMLSH_BIN=target/debug/pmlsh bash scripts/serve_smoke.sh
set -euo pipefail

BIN=${PMLSH_BIN:-target/release/pmlsh}
PORT=${PMLSH_SMOKE_PORT:-7979}
TOKEN=smoke-token
TMP=$(mktemp -d)
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "== generating smoke datasets"
"$BIN" gen --dataset audio --scale smoke --out "$TMP/audio.fvecs" \
  --queries "$TMP/audio_q.fvecs" --nq 8
"$BIN" gen --dataset cifar --scale smoke --out "$TMP/cifar.fvecs"
# A second audio-shaped file to REINDEX onto: the first 1 000 records of
# audio.fvecs (4 + 4·192 bytes each), so a REINDEX onto it serves visibly
# different data (fewer points, no row past 999).
head -c $((1000 * (4 + 4 * 192))) "$TMP/audio.fvecs" > "$TMP/audio2.fvecs"
# `QUERY 1 <row 1500 of audio.fvecs>`: before a REINDEX onto audio2.fvecs
# the row answers itself; after it, id 1500 no longer exists.
ROW1500_QUERY="QUERY 1 $(od -A n -v -t f4 -j $((1500 * (4 + 4 * 192) + 4)) -N $((4 * 192)) \
  "$TMP/audio.fvecs" | tr -s ' \n' ' ' | sed 's/^ //; s/ $//')"
# A 300 x 8 CSV whose row 17 starts with a NaN: no index can be built over it.
awk 'BEGIN { for (r = 0; r < 300; r++) { for (c = 0; c < 8; c++)
  printf "%s%s", (c ? "," : ""), (r == 17 && c == 0 ? "nan" : (r * 8 + c) % 97 / 8); print "" } }' \
  > "$TMP/nan.csv"
NAN_ERR="dataset contains a non-finite (NaN/Inf) component at row 17 component 0"

echo "== a dataset with a NaN is refused, not a panic (serve --data)"
if timeout 60 "$BIN" serve --data "bad=$TMP/nan.csv" --port 0 > /dev/null 2> "$TMP/nan.err"; then
  echo "FAIL: serve accepted a dataset with a NaN" >&2
  exit 1
fi
if grep -qx "error: $NAN_ERR" "$TMP/nan.err" && ! grep -q panicked "$TMP/nan.err"; then
  printf 'ok: %-18s -> %s\n' "serve --data" "$(cat "$TMP/nan.err")"
else
  echo "FAIL: serve --data on a NaN file said:" >&2
  cat "$TMP/nan.err" >&2
  exit 1
fi

echo "== local save: the snapshot does not depend on --build-threads"
"$BIN" save --data "$TMP/audio.fvecs" --out "$TMP/one.pmlsh" > /dev/null
"$BIN" save --data "$TMP/audio.fvecs" --out "$TMP/three.pmlsh" --build-threads 3 > /dev/null
if cmp "$TMP/one.pmlsh" "$TMP/three.pmlsh"; then
  printf 'ok: %-18s -> 1- and 3-thread builds save identical bytes\n' "SAVE"
else
  echo "FAIL: --build-threads 3 saved a different snapshot" >&2
  exit 1
fi

echo "== starting pmlsh serve (two indexes, auth-gated mutating verbs)"
"$BIN" serve --data "audio=$TMP/audio.fvecs,cifar=$TMP/cifar.fvecs" \
  --port "$PORT" --threads 2 --auth-token "$TOKEN" &
SERVE_PID=$!

wait_ready() { # blocks until the serve process accepts connections
  for _ in $(seq 1 120); do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "FAIL: serve process died during startup" >&2
      exit 1
    fi
    if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
      return 0
    fi
    sleep 1
  done
  echo "FAIL: server never accepted a connection" >&2
  exit 1
}

echo "== waiting for the server to accept connections"
wait_ready

echo "== wire SAVE before any mutation: one writer at one shard"
"$BIN" save --addr "127.0.0.1:$PORT" --out "$TMP/wire.pmlsh" \
  --index audio --auth-token "$TOKEN" > /dev/null
if cmp "$TMP/one.pmlsh" "$TMP/wire.pmlsh"; then
  printf 'ok: %-18s -> wire SAVE and local save write identical bytes\n' "SAVE"
else
  echo "FAIL: wire SAVE differs from pmlsh save --data" >&2
  exit 1
fi

# One persistent connection for the whole scripted session (auth and the
# current index are per-connection state).
exec 3<>"/dev/tcp/127.0.0.1/$PORT"

req() { # req <request-line> -> prints the one reply line
  printf '%s\n' "$1" >&3
  local reply
  IFS= read -r reply <&3
  printf '%s\n' "${reply%$'\r'}"
}

expect() { # expect <request-line> <reply-glob>
  local got
  got=$(req "$1")
  case "$got" in
    $2) printf 'ok: %-18s -> %s\n' "${1%% *}" "$got" ;;
    *)
      echo "FAIL: '$1' -> '$got' (wanted '$2')" >&2
      exit 1
      ;;
  esac
}

# Builds a `QUERY <k> <0.25 x dim>` line for the current index by reading
# its dimensionality off INDEXINFO — no hardcoded dataset shapes.
query_line() {
  local dim
  dim=$(req "INDEXINFO" | sed -n 's/.* dim=\([0-9]*\).*/\1/p')
  [ -n "$dim" ] || { echo "FAIL: could not parse dim from INDEXINFO" >&2; exit 1; }
  awk -v d="$dim" 'BEGIN{printf "QUERY 3"; for(i=0;i<d;i++) printf " 0.25"; print ""}'
}

echo "== driving the protocol"
expect "PING" "PONG"
expect "LISTINDEXES" "INDEXES audio,cifar"
expect "INDEXINFO" "INDEXINFO name=audio points=* dim=*"
expect "$(query_line)" "OK *:*"
expect "USE cifar" "OK using cifar"
expect "INDEXINFO" "INDEXINFO name=cifar points=* dim=*"
expect "$(query_line)" "OK *:*"
expect "STATS" "STATS index=cifar queries=1 *"

echo "== auth gating"
expect "USE audio" "OK using audio"
expect "REINDEX $TMP/audio2.fvecs" "ERR authentication required*"
expect "AUTH wrong-token" "ERR bad token"
expect "AUTH $TOKEN" "OK authenticated"
expect "ATTACH bad $TMP/nan.csv" "ERR $NAN_ERR"
expect "REINDEX $TMP/nan.csv" "ERR $NAN_ERR"
expect "LISTINDEXES" "INDEXES audio,cifar"
expect "$ROW1500_QUERY" "OK 1500:*"
expect "REINDEX $TMP/audio2.fvecs" "OK index=audio epoch=1 points=1000 *"
expect "INDEXINFO" "INDEXINFO name=audio points=1000 *epoch=1 *"
AUDIO2_ROWS=1000
expect "$(query_line)" "OK *:*"
expect_gone() { # expect_gone <query-line> <id>: the reply names no such id
  local got
  got=$(req "$1")
  case "$got" in
    "OK $2:"*)
      echo "FAIL: id $2 is still served after the REINDEX: '$got'" >&2
      exit 1
      ;;
    "OK "*) printf 'ok: %-18s -> id %s gone (%s)\n' "QUERY" "$2" "${got:0:40}" ;;
    *) echo "FAIL: QUERY after REINDEX -> '$got'" >&2; exit 1 ;;
  esac
}
expect_gone "$ROW1500_QUERY" 1500

echo "== mutation churn (INSERT / QUERY / DELETE / QUERY)"
# INSERT a vector, prove the very next QUERY returns it at distance 0
# (no reindex), DELETE it, prove the same QUERY no longer returns it —
# with the epoch observable through INDEXINFO at every step.
DIM=$(req "INDEXINFO" | sed -n 's/.* dim=\([0-9]*\).*/\1/p')
[ -n "$DIM" ] || { echo "FAIL: could not parse dim for churn" >&2; exit 1; }
INSERT_LINE=$(awk -v d="$DIM" 'BEGIN{printf "INSERT"; for(i=0;i<d;i++) printf " 0.125"; print ""}')
PROBE_LINE=$(awk -v d="$DIM" 'BEGIN{printf "QUERY 1"; for(i=0;i<d;i++) printf " 0.125"; print ""}')
REPLY=$(req "$INSERT_LINE")
case "$REPLY" in
  "OK id="*) printf 'ok: %-18s -> %s\n' "INSERT" "$REPLY" ;;
  *) echo "FAIL: INSERT -> '$REPLY'" >&2; exit 1 ;;
esac
NEW_ID=${REPLY#OK id=}; NEW_ID=${NEW_ID%% *}
expect "INDEXINFO" "INDEXINFO name=audio *epoch=2 *"
expect "$PROBE_LINE" "OK $NEW_ID:0*"
expect "DELETE $NEW_ID" "OK deleted $NEW_ID epoch=3 *"
expect "INDEXINFO" "INDEXINFO name=audio *epoch=3 *"
GONE=$(req "$PROBE_LINE")
case "$GONE" in
  "OK $NEW_ID:"*)
    echo "FAIL: deleted id $NEW_ID still returned: '$GONE'" >&2
    exit 1
    ;;
  "OK "*) printf 'ok: %-18s -> deleted id gone (%s)\n' "QUERY" "$GONE" ;;
  *) echo "FAIL: post-delete QUERY -> '$GONE'" >&2; exit 1 ;;
esac
expect "DELETE $NEW_ID" "ERR unknown point id $NEW_ID"

echo "== BATCH: amortized write path (one epoch bump per batch)"
# Three ops — two inserts and a delete of the id the first insert is
# about to receive (ids are assigned sequentially and never reused, so
# that's NEW_ID+1; ops apply in order against the evolving clone) — must
# land as ONE publication: epoch 3 -> 4, not 3 -> 6.
BATCH_INSERT=$(awk -v d="$DIM" 'BEGIN{printf "INSERT"; for(i=0;i<d;i++) printf " 0.375"; print ""}')
POINTS_BEFORE=$(req "INDEXINFO" | sed -n 's/.* points=\([0-9]*\).*/\1/p')
[ -n "$POINTS_BEFORE" ] || { echo "FAIL: could not parse points for BATCH" >&2; exit 1; }
printf 'BATCH 3\n%s\n%s\nDELETE %d\n' "$BATCH_INSERT" "$BATCH_INSERT" "$((NEW_ID + 1))" >&3
IFS= read -r REPLY <&3; REPLY=${REPLY%$'\r'}
case "$REPLY" in
  "OK applied=3 failed=0 epoch=4 points=$((POINTS_BEFORE + 1))")
    printf 'ok: %-18s -> %s\n' "BATCH" "$REPLY" ;;
  *) echo "FAIL: BATCH -> '$REPLY'" >&2; exit 1 ;;
esac
expect "INDEXINFO" "INDEXINFO name=audio *epoch=4 *"

# Semantic failures poison only their own op: the unknown delete becomes
# a FAIL line after the summary, the insert in the same batch applies.
printf 'BATCH 2\nDELETE 999999\n%s\n' "$BATCH_INSERT" >&3
IFS= read -r REPLY <&3; REPLY=${REPLY%$'\r'}
case "$REPLY" in
  "OK applied=1 failed=1 epoch=5 "*) printf 'ok: %-18s -> %s\n' "BATCH" "$REPLY" ;;
  *) echo "FAIL: partial BATCH -> '$REPLY'" >&2; exit 1 ;;
esac
IFS= read -r FAIL_LINE <&3; FAIL_LINE=${FAIL_LINE%$'\r'}
if [ "$FAIL_LINE" = "FAIL 0 unknown point id 999999" ]; then
  printf 'ok: %-18s -> %s\n' "BATCH" "$FAIL_LINE"
else
  echo "FAIL: BATCH fail line -> '$FAIL_LINE'" >&2; exit 1
fi

# Syntactic errors reject the whole batch unapplied: nothing publishes,
# the epoch stays put.
printf 'BATCH 2\nINSERT 1 2 nan\nDELETE 1\n' >&3
IFS= read -r REPLY <&3; REPLY=${REPLY%$'\r'}
case "$REPLY" in
  "ERR batch line 0: bad vector component 'nan'")
    printf 'ok: %-18s -> %s\n' "BATCH" "$REPLY" ;;
  *) echo "FAIL: malformed BATCH -> '$REPLY'" >&2; exit 1 ;;
esac
expect "BATCH 0" "ERR BATCH needs a positive op count"
expect "INDEXINFO" "INDEXINFO name=audio *epoch=5 *"
expect "QUIT" "BYE"
exec 3<&- 3>&-

echo "== binary framing parity (batch-query --addr, text vs binary)"
"$BIN" batch-query --addr "127.0.0.1:$PORT" --queries "$TMP/audio_q.fvecs" \
  --index audio --k 5 > "$TMP/text.out"
"$BIN" batch-query --addr "127.0.0.1:$PORT" --queries "$TMP/audio_q.fvecs" \
  --index audio --k 5 --binary > "$TMP/binary.out"
grep '^query ' "$TMP/text.out" > "$TMP/text.q"
grep '^query ' "$TMP/binary.out" > "$TMP/binary.q"
[ -s "$TMP/text.q" ] || { echo "FAIL: batch-query produced no query lines" >&2; exit 1; }
if diff -u "$TMP/text.q" "$TMP/binary.q"; then
  printf 'ok: %-18s -> %s query replies bit-identical across framings\n' \
    "BINARY" "$(wc -l < "$TMP/text.q")"
else
  echo "FAIL: text and binary framings disagree" >&2
  exit 1
fi

echo "== pmlsh reindex client against the running server"
"$BIN" reindex --addr "127.0.0.1:$PORT" --data "$TMP/audio.fvecs" \
  --index audio --auth-token "$TOKEN" | tee "$TMP/reindex.out"
ROWS=$(sed -n 's/^OK .* points=\([0-9]*\).*/\1/p' "$TMP/reindex.out")
[ -n "$ROWS" ] || { echo "FAIL: could not parse points from reindex" >&2; exit 1; }

echo "== pmlsh batch-mutate client (ops file -> BATCH verb)"
# 2·64 + 1 distinct inserts fill two 64-row tail chunks of the row store
# and open a third; the last one, all 0.625, gets id ROWS + 128.
{
  echo "# smoke ops: 129 inserts, one unknown delete (reported, not fatal)"
  echo ""
  awk -v d="$DIM" 'BEGIN{for(n=0;n<129;n++){printf "INSERT"; for(i=0;i<d;i++) printf " %.10g", 0.5 + n/1024; print ""}}'
  echo "DELETE 999999"
} > "$TMP/ops.txt"
"$BIN" batch-mutate --addr "127.0.0.1:$PORT" --ops "$TMP/ops.txt" \
  --index audio --auth-token "$TOKEN" > "$TMP/batch.out"
grep -q "applied=129 failed=1" "$TMP/batch.out" \
  || { echo "FAIL: batch-mutate summary:" >&2; cat "$TMP/batch.out" >&2; exit 1; }
grep -q "FAIL 129 unknown point id 999999" "$TMP/batch.out" \
  || { echo "FAIL: batch-mutate fail line:" >&2; cat "$TMP/batch.out" >&2; exit 1; }
printf 'ok: %-18s -> applied=129 failed=1, FAIL line surfaced\n' "batch-mutate"

echo "== snapshot save (pmlsh save client -> wire SAVE verb)"
"$BIN" save --addr "127.0.0.1:$PORT" --out "$TMP/audio.pmlsh" \
  --index audio --auth-token "$TOKEN"
[ -s "$TMP/audio.pmlsh" ] || { echo "FAIL: snapshot file not written" >&2; exit 1; }

# Capture the served answer to the last inserted vector for the parity
# check below: the saved tail chunks must reload and answer the same.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
PARITY_LINE=$(awk -v d="$DIM" 'BEGIN{printf "QUERY 3"; for(i=0;i<d;i++) printf " 0.625"; print ""}')
PARITY_BEFORE=$(req "$PARITY_LINE")
case "$PARITY_BEFORE" in
  "OK $((ROWS + 128)):0"*) ;;
  *) echo "FAIL: parity query -> '$PARITY_BEFORE'" >&2; exit 1 ;;
esac
expect "QUIT" "BYE"
exec 3<&- 3>&-

echo "== save -> kill -> re-serve from the .pmlsh snapshot"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
"$BIN" serve --data "audio=$TMP/audio.pmlsh" --port "$PORT" --threads 2 &
SERVE_PID=$!
wait_ready

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
expect "INDEXINFO" "INDEXINFO name=audio *state=serving pct=100 shards=1"
PARITY_AFTER=$(req "$PARITY_LINE")
if [ "$PARITY_BEFORE" = "$PARITY_AFTER" ]; then
  printf 'ok: %-18s -> restored snapshot answers identically\n' "PARITY"
else
  echo "FAIL: snapshot parity broke:" >&2
  echo "  before: $PARITY_BEFORE" >&2
  echo "  after:  $PARITY_AFTER" >&2
  exit 1
fi
expect "QUIT" "BYE"
exec 3<&- 3>&-

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true

echo "== sharded serving (--shards 4): scatter-gather behind the same wire"
"$BIN" serve --data "audio=$TMP/audio.fvecs" --port "$PORT" --threads 2 \
  --shards 4 --auth-token "$TOKEN" &
SERVE_PID=$!
wait_ready

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
expect "INDEXINFO" "INDEXINFO name=audio *shards=4"
expect "$(query_line)" "OK *:*"
expect "AUTH $TOKEN" "OK authenticated"

# A REINDEX rebuilds and swaps all four shards: the epoch moves by four.
EPOCH=$(req "INDEXINFO" | sed -n 's/.* epoch=\([0-9]*\).*/\1/p')
[ -n "$EPOCH" ] || { echo "FAIL: could not parse epoch before REINDEX" >&2; exit 1; }
expect "$ROW1500_QUERY" "OK 1500:*"
expect "REINDEX $TMP/audio2.fvecs" "OK index=audio epoch=$((EPOCH + 4)) points=$AUDIO2_ROWS *"
expect "INDEXINFO" "INDEXINFO name=audio points=$AUDIO2_ROWS *state=serving pct=100 shards=4"
expect "$(query_line)" "OK *:*"
expect_gone "$ROW1500_QUERY" 1500

# Mutations route to the owning shard; the wire grammar is unchanged.
DIM=$(req "INDEXINFO" | sed -n 's/.* dim=\([0-9]*\).*/\1/p')
INSERT_LINE=$(awk -v d="$DIM" 'BEGIN{printf "INSERT"; for(i=0;i<d;i++) printf " 0.5"; print ""}')
PROBE_LINE=$(awk -v d="$DIM" 'BEGIN{printf "QUERY 1"; for(i=0;i<d;i++) printf " 0.5"; print ""}')
REPLY=$(req "$INSERT_LINE")
case "$REPLY" in
  "OK id="*) printf 'ok: %-18s -> %s\n' "INSERT" "$REPLY" ;;
  *) echo "FAIL: sharded INSERT -> '$REPLY'" >&2; exit 1 ;;
esac
NEW_ID=${REPLY#OK id=}; NEW_ID=${NEW_ID%% *}
expect "$PROBE_LINE" "OK $NEW_ID:0*"
expect "DELETE $NEW_ID" "OK deleted $NEW_ID *"
expect "QUIT" "BYE"
exec 3<&- 3>&-

echo "== sharded snapshot: SAVE writes one .pmlsh file, re-serve restores all shards"
"$BIN" save --addr "127.0.0.1:$PORT" --out "$TMP/sharded.pmlsh" \
  --index audio --auth-token "$TOKEN"
[ "$(head -c 8 "$TMP/sharded.pmlsh")" = "PMLSHSNP" ] \
  || { echo "FAIL: sharded SAVE did not write a .pmlsh file" >&2; exit 1; }
if compgen -G "$TMP/sharded.pmlsh.s*" > /dev/null; then
  echo "FAIL: sharded SAVE wrote per-shard sibling files" >&2
  exit 1
fi

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
PARITY_LINE=$(query_line)
PARITY_BEFORE=$(req "$PARITY_LINE")
expect "QUIT" "BYE"
exec 3<&- 3>&-

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
"$BIN" serve --data "audio=$TMP/sharded.pmlsh" --port "$PORT" --threads 2 &
SERVE_PID=$!
wait_ready

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
expect "INDEXINFO" "INDEXINFO name=audio *state=serving pct=100 shards=4"
PARITY_AFTER=$(req "$PARITY_LINE")
if [ "$PARITY_BEFORE" = "$PARITY_AFTER" ]; then
  printf 'ok: %-18s -> restored sharded snapshot answers identically\n' "PARITY"
else
  echo "FAIL: sharded snapshot parity broke:" >&2
  echo "  before: $PARITY_BEFORE" >&2
  echo "  after:  $PARITY_AFTER" >&2
  exit 1
fi
expect "QUIT" "BYE"
exec 3<&- 3>&-

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "== serve smoke passed"
