#!/usr/bin/env bash
# Three-stage CI entry point: fast unit suite first, fault-injection chaos
# and concurrency stress suites second (so a broken build fails in seconds
# instead of after the slow chaos runs), then a ThreadSanitizer rebuild of
# all three — the coordinator reaper, heartbeat senders, replay machinery
# and concurrent queries' table UDFs run in parallel, so every run is
# race-checked.
#
# Usage:
#   ci/run_tests.sh                 # build + unit + chaos + stress + TSan
#   SQLINK_SANITIZE=address ci/run_tests.sh   # swap TSan for ASan
#   SQLINK_SANITIZE=none ci/run_tests.sh      # skip the sanitizer stage
#
# Environment:
#   BUILD_DIR        build directory (default: build)
#   SQLINK_SANITIZE  thread|address|undefined|none — sanitizer for stage 3,
#                    in a separate build dir (${BUILD_DIR}-${SQLINK_SANITIZE});
#                    defaults to thread, "none" disables the stage
#   CTEST_PARALLEL   parallel test jobs (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${CTEST_PARALLEL:-$(nproc)}"
SQLINK_SANITIZE="${SQLINK_SANITIZE:-thread}"

run_suites() {
  local dir="$1"
  echo "==> [${dir}] stage 1: unit suite"
  (cd "${dir}" && ctest -L unit --output-on-failure -j "${JOBS}")
  echo "==> [${dir}] stage 2: chaos suite"
  (cd "${dir}" && ctest -L chaos --output-on-failure -j "${JOBS}")
  echo "==> [${dir}] stage 2b: stress suite"
  (cd "${dir}" && ctest -L stress --output-on-failure -j "${JOBS}")
}

echo "==> configure + build (${BUILD_DIR})"
cmake -B "${BUILD_DIR}" -S .
cmake --build "${BUILD_DIR}" -j "${JOBS}"
run_suites "${BUILD_DIR}"

# Bench smokes write their JSON series under ${BUILD_DIR}/, leaving the
# committed BENCH_pr*.json results as recorded.
#
# §7 ingest series: DFS ingest vs streamed ingest of the same transformed
# table; bench_ingest exits 1 when the two return different row counts.
echo "==> [${BUILD_DIR}] bench smoke (DFS vs streamed ingest)"
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_ingest
"${BUILD_DIR}/bench/bench_ingest" 40000

# Serving smoke: the admission-gated query server must hold goodput as
# client concurrency climbs past the admitted window — --check fails if
# qps at 16 clients drops below 90% of the single-client baseline or any
# query fails.
echo "==> [${BUILD_DIR}] bench smoke (concurrent serving goodput)"
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_serving
SERVING_BENCH_JSON="${BUILD_DIR}/bench_serving.json"
rm -f "${SERVING_BENCH_JSON}"
SQLINK_BENCH_JSON="${SERVING_BENCH_JSON}" "${BUILD_DIR}/bench/bench_serving" --smoke --check

# Mux fabric smoke: 1/4/16/64 concurrent streaming pipelines over the
# shared connection pool — --check fails if more than 2 x conns-per-peer x
# peers data sockets are dialed at 64 clients, or if any transfer fails.
echo "==> [${BUILD_DIR}] bench smoke (mux fabric sockets)"
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_mux
MUX_BENCH_JSON="${BUILD_DIR}/bench_mux.json"
rm -f "${MUX_BENCH_JSON}"
SQLINK_BENCH_JSON="${MUX_BENCH_JSON}" "${BUILD_DIR}/bench/bench_mux" --smoke --check

# Slow-consumer smoke (ablation A4): with spill on, a lagging ML reader
# must push frames to node-local disk; with spill off, it must stall the SQL
# side instead. --check fails unless the spill run spilled, the
# backpressure run did not, both delivered every row, and no .spill file
# is left. 100k rows take well under a second and spill in every run.
echo "==> [${BUILD_DIR}] bench smoke (slow consumer: spill vs backpressure)"
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_spill
"${BUILD_DIR}/bench/bench_spill" 100000 --check

# Fault-tolerance smoke (ablation A7): after an untimed warm-up, one
# failure-free transfer and one whose reader drops its connection once
# mid-stream. bench_fault_tolerance exits 2 on any wrong row count; the
# stage also fails unless the failure forced a reconnect, so every run
# replays from a rewound frame log through the reader's ack window.
echo "==> [${BUILD_DIR}] bench smoke (A7 fault tolerance)"
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_fault_tolerance
FT_LOG="$(mktemp)"
"${BUILD_DIR}/bench/bench_fault_tolerance" 40000 | tee "${FT_LOG}"
FT_RECONNECTS="$(sed -n 's/^reconnects observed: //p' "${FT_LOG}")"
rm -f "${FT_LOG}"
if [[ -z "${FT_RECONNECTS}" || "${FT_RECONNECTS}" -lt 1 ]]; then
  echo "bench_fault_tolerance observed no reconnect"; exit 1
fi

# Transfer-mechanism smoke (§8): direct sockets and the message broker,
# each failure-free and with one injected mid-stream consumer failure. It
# fails unless every run delivers exactly the source table's rows: the
# broker's consumer decodes the same row batches as the stream reader, and
# the direct run with a failure replays through the reader's deferred acks.
echo "==> [${BUILD_DIR}] bench smoke (direct vs broker transfer)"
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_mq_transfer
"${BUILD_DIR}/bench/bench_mq_transfer" 40000

# SQL microbenchmark smoke: every bench_sql case runs briefly. A case whose
# query fails reports it only in its JSON entry ("error_occurred"), with
# exit status 0, so the stage reads the JSON and fails on any such entry as
# well as on a non-zero exit. It also fails on a case whose name lacks
# "/real_time": such a case sizes its iterations by the CPU time of a
# thread that mostly waits on the SQL workers. Correctness only; there is
# no timing gate.
echo "==> [${BUILD_DIR}] bench smoke (SQL microbenchmarks)"
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_sql
SQL_BENCH_JSON="${BUILD_DIR}/bench_sql.json"
"${BUILD_DIR}/bench/bench_sql" --benchmark_min_time=0.01 \
  --benchmark_format=json > "${SQL_BENCH_JSON}"
python3 - "${SQL_BENCH_JSON}" <<'PY'
import json, sys
runs = json.load(open(sys.argv[1]))["benchmarks"]
failed = [run["name"] for run in runs if run.get("error_occurred")]
cpu_clock = [run["name"] for run in runs if "/real_time" not in run["name"]]
assert runs, "bench_sql ran no case"
assert not failed, "bench_sql cases failed: " + ", ".join(failed)
assert not cpu_clock, "bench_sql cases without UseRealTime(): " + ", ".join(cpu_clock)
print("    bench_sql: %d cases, none failed" % len(runs))
PY

# Ops-endpoint smoke: start a workload under SQLINK_OPS_PORT, then curl the
# live endpoints — /metrics must be Prometheus text carrying the planner
# q-error feedback, /queries and /tracez must be valid JSON — while
# streaming transfers are still running, and while an idle connection
# (fd 8) that never sends a request is held open: the server must not
# wait on it forever.
echo "==> [${BUILD_DIR}] ops endpoint smoke (live /metrics, /queries, /tracez)"
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target ops_demo
OPS_LOG="$(mktemp)"
SQLINK_OPS_PORT=0 "${BUILD_DIR}/examples/ops_demo" 6 > "${OPS_LOG}" 2>&1 &
OPS_PID=$!
OPS_PORT=""
for _ in $(seq 1 100); do
  OPS_PORT="$(sed -n 's/^OPS_PORT=//p' "${OPS_LOG}" | head -n1)"
  [[ -n "${OPS_PORT}" ]] && break
  sleep 0.1
done
if [[ -z "${OPS_PORT}" ]]; then
  echo "ops_demo never reported its port:"; cat "${OPS_LOG}"; kill "${OPS_PID}" 2>/dev/null || true; exit 1
fi
# Give the demo a moment to run its EXPLAIN ANALYZE and first transfer.
sleep 2
exec 8<>"/dev/tcp/127.0.0.1/${OPS_PORT}"
curl -sf --max-time 10 "127.0.0.1:${OPS_PORT}/healthz" | grep -q ok
curl -sf --max-time 10 "127.0.0.1:${OPS_PORT}/metrics" > /tmp/ops_metrics.txt
grep -q '^# TYPE sqlink_' /tmp/ops_metrics.txt
grep -q 'sqlink_sql_planner_qerror_x100' /tmp/ops_metrics.txt
curl -sf --max-time 10 "127.0.0.1:${OPS_PORT}/queries" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert "active" in doc and "finished" in doc, doc.keys()
assert doc["finished"], "no finished queries on /queries"
assert any(q.get("operators") for q in doc["finished"]), "no operator stats"
'
curl -sf --max-time 10 "127.0.0.1:${OPS_PORT}/tracez" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert "traces" in doc, doc.keys()
'
exec 8>&-
wait "${OPS_PID}"
grep -q '^DONE transfers=' "${OPS_LOG}"
rm -f "${OPS_LOG}" /tmp/ops_metrics.txt
echo "    ops endpoint smoke passed (port ${OPS_PORT})"

# Serving concurrency smoke: one long-lived `sql_shell --serve` process,
# eight parallel `sql_shell --connect` clients each running a real query
# over the wire. Every client must print the exact COUNT(*), proving the
# server stays correct under concurrent admission. An idle connection
# (fd 7) that never sends its submit frame is held open while the clients
# run and through "quit": it must neither hold up their answers nor keep
# the server from stopping cleanly.
serving_smoke() {
  echo "==> [${BUILD_DIR}] serving concurrency smoke"
  local serve_log fifo port
  serve_log="$(mktemp)"
  fifo="$(mktemp -u)"
  mkfifo "${fifo}"
  SQLINK_MAX_CONCURRENT_QUERIES=4 \
    "${BUILD_DIR}/examples/sql_shell" --serve 0 2000 \
    < "${fifo}" > "${serve_log}" 2>&1 &
  local serve_pid=$!
  exec 9> "${fifo}"  # hold the fifo open so the server's stdin stays live
  port=""
  for _ in $(seq 1 200); do
    port="$(sed -n 's/^SERVE_PORT=//p' "${serve_log}" | head -n1)"
    [[ -n "${port}" ]] && break
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "sql_shell --serve never reported its port:"; cat "${serve_log}"
    exec 9>&-; kill "${serve_pid}" 2>/dev/null || true; exit 1
  fi
  exec 7<>"/dev/tcp/127.0.0.1/${port}"
  local client_pids=() client_logs=() i
  for i in $(seq 1 8); do
    local log; log="$(mktemp)"
    "${BUILD_DIR}/examples/sql_shell" --connect "127.0.0.1:${port}" \
      -e "SELECT COUNT(*) FROM carts" --tenant "t$((i % 2))" \
      > "${log}" 2>/dev/null &
    client_pids+=($!)
    client_logs+=("${log}")
  done
  local failed=0
  for i in $(seq 0 7); do
    wait "${client_pids[$i]}" || failed=1
    if [[ "$(cat "${client_logs[$i]}")" != "2000" ]]; then
      echo "client $i got wrong answer: $(cat "${client_logs[$i]}")"
      failed=1
    fi
    rm -f "${client_logs[$i]}"
  done
  echo quit >&9
  exec 9>&-
  wait "${serve_pid}" || failed=1
  exec 7>&-
  rm -f "${serve_log}" "${fifo}"
  if [[ "${failed}" -ne 0 ]]; then
    echo "serving concurrency smoke FAILED"; exit 1
  fi
  echo "    serving concurrency smoke passed (port ${port})"
}
serving_smoke

# End-to-end benchmark smoke: each BENCHMARK.json workload builds from this
# tree (e2ebench/ is its own CMake project over src/) and runs briefly with
# its per-op reference checks and post-run leak checks. Any non-zero exit
# fails the stage: 1 = a wrong result or a leak, 2 = a failed build or
# setup. Correctness only; there is no timing gate.
echo "==> [${BUILD_DIR}] e2ebench correctness smoke"
for workload in fig3_stream fig4_cached serve_agg; do
  echo "    e2ebench ${workload}"
  CARGO_TARGET_DIR="${BUILD_DIR}/e2ebench" python3 e2ebench/run.py \
    --workload "${workload}" --seed 2015 --seconds 3 --trace 0
done
# One more fig3_stream run with leases on: sink and reader heartbeats,
# their byes and the coordinator's heartbeat dispatch run under the
# workload's reference and leak checks. Every other run keeps them off.
echo "    e2ebench fig3_stream (SQLINK_HEARTBEAT_MS=200)"
SQLINK_HEARTBEAT_MS=200 CARGO_TARGET_DIR="${BUILD_DIR}/e2ebench" \
  python3 e2ebench/run.py --workload fig3_stream --seed 2015 --seconds 3 \
  --trace 0
# And one under a data-plane fault: split 1's reader drops its connection
# at every 50000th row delivered by any split-1 reader. A split holds about
# 69.5k rows per op and the two clients' split-1 readers share the count,
# so a reader reconnects about 1.4 times per op and never more than its
# max_reconnects (3). Every op must reconnect, replay and still match the
# reference. e2ebench logs errors only, so the reconnects are read from
# the metrics dump, not from stderr.
echo "    e2ebench fig3_stream (FAILPOINTS=stream.reader.row.split1=every(50000):error)"
FAULT_METRICS="$(mktemp)"
SQLINK_METRICS_DUMP="${FAULT_METRICS}" \
  FAILPOINTS="stream.reader.row.split1=every(50000):error" \
  CARGO_TARGET_DIR="${BUILD_DIR}/e2ebench" python3 e2ebench/run.py \
  --workload fig3_stream --seed 2015 --seconds 3 --trace 0
python3 - "${FAULT_METRICS}" <<'PY'
import json, sys
reconnects = json.load(open(sys.argv[1]))["counters"].get("stream.reconnects", 0)
assert reconnects >= 1, "the fault run made no reconnect"
print("    fault run: %d reconnects" % reconnects)
PY
rm -f "${FAULT_METRICS}"

if [[ "${SQLINK_SANITIZE}" != "none" ]]; then
  SAN_DIR="${BUILD_DIR}-${SQLINK_SANITIZE}"
  echo "==> stage 3: sanitizer pass (-fsanitize=${SQLINK_SANITIZE})"
  cmake -B "${SAN_DIR}" -S . -DSQLINK_SANITIZE="${SQLINK_SANITIZE}"
  cmake --build "${SAN_DIR}" -j "${JOBS}"
  run_suites "${SAN_DIR}"
fi

echo "==> all stages passed"
