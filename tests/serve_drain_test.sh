#!/usr/bin/env bash
# Acceptance (c), process half: SIGTERM sent while a request is in
# flight lets that request finish (the client gets its response) and the
# daemon exits 0. Run by ctest as:
#   serve_drain_test.sh <path-to-trilist_cli>
set -u

CLI="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"

fail() { echo "FAIL: $*" >&2; exit 1; }

"$CLI" generate --n 500 --alpha 1.7 --seed 3 --out g.txt >/dev/null \
  || fail "generate"

SOCK="$WORKDIR/drain.sock"
# The exec-delay knob holds the in-flight request long enough for the
# SIGTERM to land mid-execution deterministically.
TRILIST_SERVE_EXEC_DELAY_S=1.0 \
  "$CLI" serve --unix "$SOCK" --graph "g=$WORKDIR/g.txt" \
  > serve.out 2>&1 &
SERVE_PID=$!

# Wait for the socket to appear (readiness).
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.05
done
[ -S "$SOCK" ] || fail "server socket never appeared"

"$CLI" query --unix "$SOCK" --graph g > query.out 2>&1 &
QUERY_PID=$!

# Let the request get admitted and begin executing, then drain. Poll the
# server's stats (for up to ~10 s) until it reports the request in
# flight; stats are answered on the connection thread, so a poll never
# queues behind the delayed request.
IN_FLIGHT=0
for _ in $(seq 1 200); do
  if "$CLI" query --unix "$SOCK" --stats 2>/dev/null \
      | grep -qx "trilist_serve_in_flight 1"; then
    IN_FLIGHT=1
    break
  fi
  sleep 0.05
done
[ "$IN_FLIGHT" -eq 1 ] || echo "note: request not seen in flight" >&2
kill -TERM "$SERVE_PID" || fail "kill"

wait "$QUERY_PID"
QUERY_RC=$?
wait "$SERVE_PID"
SERVE_RC=$?

[ "$QUERY_RC" -eq 0 ] || { cat query.out >&2; fail "in-flight query rc=$QUERY_RC"; }
grep -q "triangles" query.out || { cat query.out >&2; fail "no triangles in query output"; }
[ "$SERVE_RC" -eq 0 ] || { cat serve.out >&2; fail "server exit rc=$SERVE_RC"; }
grep -q "drained: 1 ok" serve.out || { cat serve.out >&2; fail "drain summary missing"; }
[ ! -S "$SOCK" ] || fail "socket not unlinked on shutdown"

echo "PASS"
