#!/usr/bin/env bash
# End-to-end check of the store-and-forward journal (`make journal-e2e`):
# run the quick outage experiment — the same monitored row stream across a
# forced server outage with and without the journal plus a truncation-chaos
# arm — and assert the durability headline from the metrics snapshot: zero
# rows lost with the journal, a bit-identical rebuilt model, a lossy
# no-journal counterfactual, and exactly-once delivery under chaos. Then
# run the kertmon pipeline in durable mode and confirm the per-host
# journals were created and drained. Exits non-zero on any failed
# expectation.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

go build -o "$tmp/kertbench" ./cmd/kertbench
go build -o "$tmp/kertmon" ./cmd/kertmon

echo "journal-e2e: running the quick outage experiment"
"$tmp/kertbench" -exp outage -quick -metrics-json "$tmp/outage.json" \
  > "$tmp/outage.log" 2>&1 || {
  echo "journal-e2e: outage experiment failed" >&2
  cat "$tmp/outage.log" >&2
  exit 1
}

# A gauge pinned to an exact value in the snapshot.
expect() {
  grep -q "\"$1\": $2\b" "$tmp/outage.json" || {
    echo "journal-e2e: gauge $1 != $2 in the snapshot:" >&2
    grep -o "\"$1\": [^,}]*" "$tmp/outage.json" >&2 || echo "  (missing)" >&2
    exit 1
  }
}
# A gauge that must be present and strictly positive.
expect_pos() {
  v=$(grep -o "\"$1\": [^,}]*" "$tmp/outage.json" | head -1 | sed 's/.*: //')
  [ -n "$v" ] && awk -v v="$v" 'BEGIN { exit !(v > 0) }' || {
    echo "journal-e2e: gauge $1 = '${v:-missing}', want > 0" >&2
    exit 1
  }
}

expect "outage.rows_lost.outage" 0
expect "outage.rows_identical" 1
expect "outage.model_identical" 1
expect "outage.rows_lost.chaos" 0
expect "outage.chaos_exactly_once" 1
expect "outage.journal_pending_after" 0
expect_pos "outage.rows_lost.nojournal"
expect_pos "outage.dropped_reports.nojournal"
expect_pos "outage.journal_replays"
expect_pos "outage.dup_suppressed"
echo "journal-e2e: outage arms hold (0 lost with journal, identical model, lossy counterfactual, exactly-once chaos)"

echo "journal-e2e: running kertmon with -journal-dir"
"$tmp/kertmon" -requests 150 -alpha 60 -decentral=false \
  -journal-dir "$tmp/journals" -metrics-json "$tmp/mon.json" \
  > "$tmp/mon.log" 2>&1 || {
  echo "journal-e2e: kertmon durable run failed" >&2
  cat "$tmp/mon.log" >&2
  exit 1
}
for host in linux-server aix-local aix-remote edge-probe; do
  [ -f "$tmp/journals/$host.wal" ] || {
    echo "journal-e2e: missing journal $host.wal" >&2
    ls -la "$tmp/journals" >&2 || true
    exit 1
  }
done
grep -q '"journal.appends": [1-9]' "$tmp/mon.json" || {
  echo "journal-e2e: kertmon run journaled nothing" >&2
  exit 1
}
grep -q '150 rows assembled' "$tmp/mon.log" || {
  echo "journal-e2e: kertmon did not assemble all rows:" >&2
  tail -5 "$tmp/mon.log" >&2
  exit 1
}
# A clean run drains its journals at shutdown, so a second run over the
# same directory has nothing to replay.
"$tmp/kertmon" -requests 150 -alpha 60 -decentral=false \
  -journal-dir "$tmp/journals" > "$tmp/mon2.log" 2>&1 || {
  echo "journal-e2e: second kertmon durable run failed" >&2
  cat "$tmp/mon2.log" >&2
  exit 1
}
if grep -q 'replaying' "$tmp/mon2.log"; then
  echo "journal-e2e: the first run left journaled reports behind:" >&2
  grep 'replaying' "$tmp/mon2.log" >&2
  exit 1
fi
echo "journal-e2e: per-host journals created, appended to, and fully drained"
echo "journal-e2e: OK"
