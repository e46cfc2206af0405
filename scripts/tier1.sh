#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): the release test suite, plus an
# ASan+UBSan pass over the telemetry/invariant suites so memory errors in
# the instrumented hot paths fail the gate rather than the field.
#
# Usage: scripts/tier1.sh [--full-sanitize]
#   --full-sanitize  run the ENTIRE suite under ASan+UBSan (slower)
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE_FILTER="Trace|CApi|Serve|Json|Golden|PseudoGcroDr|Amg|KrylovSmoother|KernelOracle|Direct|Schwarz|Eig|ComplexPins|Cg|BlockCg|MixedPrecision|Cancellation|Workspace|ShardedOperator|Session|LaneIndependence|SolverThreads"
if [[ "${1:-}" == "--full-sanitize" ]]; then
  SANITIZE_FILTER=""
fi

echo "==> release build + full test suite"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "==> no fused multiply-add instruction in libbkr.a"
# Every bitwise claim about the kernels (la/complex_reg.hpp, DESIGN.md
# §11) rests on each multiply and add rounding on its own. The library is
# built without -march and its 32-byte kernels are compiled for AVX2
# alone, so no vfmadd/vfmsub/vfnmadd/vfnmsub may appear. Match the
# mnemonic column only: symbol names can hold such letters
# (permute_symmetric contains "ymm").
FMA_COUNT=$(objdump -d --no-show-raw-insn build/src/libbkr.a \
  | awk -F'\t' 'NF >= 2 { split($2, op, " "); print op[1] }' \
  | grep -cE '^vfn?m(add|sub)' || true)
[[ "$FMA_COUNT" == 0 ]] \
  || { echo "libbkr.a holds $FMA_COUNT fused multiply-add instructions"; exit 1; }

echo "==> ASan+UBSan build + ${SANITIZE_FILTER:-all} tests"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-divide-by-zero,float-cast-overflow -fno-omit-frame-pointer -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-divide-by-zero,float-cast-overflow"
cmake --build build-asan -j --target unit_tests
if [[ -n "$SANITIZE_FILTER" ]]; then
  ctest --test-dir build-asan --output-on-failure -j 4 -R "$SANITIZE_FILTER"
else
  ctest --test-dir build-asan --output-on-failure -j 4
fi

echo "==> bkr_lint under ASan+UBSan: self-test + baselined pass over the tree"
# The analysis stages share one scope walker that indexes s[i - 1] and
# s[i + 1]; sanitized, an off-by-one read fails here instead of misparsing.
cmake --build build-asan -j --target bkr_lint
./build-asan/tools/bkr_lint --self-test
./build-asan/tools/bkr_lint --baseline tools/bkr_lint_baseline.txt .

echo "==> chaos smoke: fault-injection sweep under ASan+UBSan"
# The resilience suites drive every solver through injected faults; running
# them sanitized proves recovery paths never trade a crash for a leak or UB.
ctest --test-dir build-asan --output-on-failure -j 4 -R "Resilience|Chaos"

echo "==> session smoke: recycle-cache warm start across processes"
# The sequence driver replays a frequency-sweep workload through the
# session/cache service layer: once without a cache, once populating a
# fresh cache file, once loading it back — the latter two assert that
# warm-started sessions beat their cold reference on iterations.
cmake --build build -j --target example_sequence_driver
SESSION_CACHE="build/tier1_session_cache.bkrc"
rm -f "$SESSION_CACHE"
./build/examples/example_sequence_driver -grid 48 -no_cache > /dev/null
./build/examples/example_sequence_driver -grid 48 \
  -cache_file "$SESSION_CACHE" -assert_improvement > /dev/null
./build/examples/example_sequence_driver -grid 48 -method pbgcrodr \
  -cache_file "$SESSION_CACHE" -assert_improvement > /dev/null

echo "==> bench smoke: kernel trajectory schema + regression gate"
cmake --build build -j --target bench_kernels bench_check
./build/bench/bench_kernels --smoke --out build/BENCH_kernels_smoke.json
./build/tools/bench_check build/BENCH_kernels_smoke.json \
  --baseline BENCH_kernels.json --max-regression 0.25

echo "==> sharded smoke: shard-invariance + deflation gates"
# The sharded SPMD sweep (DESIGN.md §13) at reduced size; bench_check
# enforces that iteration counts are identical across shard counts and
# that the subdomain-deflation coarse space strictly beats one-level
# Schwarz on every case.
cmake --build build -j --target bench_fig_sharded
./build/bench/bench_fig_sharded --smoke --out build/BENCH_sharded_smoke.json
./build/tools/bench_check build/BENCH_sharded_smoke.json

echo "==> serve smoke: solve server (pipe mode) under ASan+UBSan"
# Drive the real bkr_serve binary (DESIGN.md §15) through one pipe-mode
# session covering the service surface: a cold gcrodr solve that seeds the
# shared cache, a warm repeat that must hit it, two held pseudo-gmres
# requests flushed into a single width-2 block solve, and an
# expired-deadline refusal. Sanitized, so a leak or UB anywhere in the
# dispatch/batching/cancellation machinery fails the gate.
cmake --build build-asan -j --target bkr_serve
SERVE_BIN=build-asan/tools/bkr_serve
SERVE_OUT=$("$SERVE_BIN" -workers 1 2> /dev/null <<'EOF'
{"op":"solve","id":"cold","matrix":"poisson2d:24","method":"gcrodr"}
{"op":"solve","id":"warm","matrix":"poisson2d:24","method":"gcrodr"}
{"op":"solve","id":"held-a","matrix":"poisson2d:24","method":"pseudo_gmres","tenant":"a","hold":true}
{"op":"solve","id":"held-b","matrix":"poisson2d:24","method":"pseudo_gmres","tenant":"b","hold":true}
{"op":"flush"}
{"op":"solve","id":"late","matrix":"poisson2d:96","method":"gmres","tol":1e-14,"deadline_ms":0}
{"op":"shutdown"}
EOF
)
echo "$SERVE_OUT" | grep -q '"id":"warm".*"warm_start":1' \
  || { echo "serve smoke: warm solve did not warm-start"; exit 1; }
echo "$SERVE_OUT" | grep -q '"id":"held-a".*"batch_width":2' \
  || { echo "serve smoke: held requests were not batched"; exit 1; }
echo "$SERVE_OUT" | grep -q '"id":"late","status":"deadline-exceeded"' \
  || { echo "serve smoke: expired deadline was not refused"; exit 1; }

# Admission control: with one lane and a queue budget of 1, a stuck
# request (tol=0 smoother mode never converges) forces the next arrival
# into an immediate typed refusal; cancelling the stuck one drains it.
SERVE_OUT=$("$SERVE_BIN" -workers 1 -queue 1 2> /dev/null <<'EOF'
{"op":"solve","id":"stuck","matrix":"poisson2d:32","method":"gmres","tol":0,"max_iterations":100000000}
{"op":"solve","id":"burst","matrix":"poisson2d:16","method":"cg"}
{"op":"cancel","id":"stuck"}
{"op":"shutdown"}
EOF
)
echo "$SERVE_OUT" | grep -q '"id":"burst","status":"overloaded"' \
  || { echo "serve smoke: queue overflow was not refused"; exit 1; }
echo "$SERVE_OUT" | grep -q '"id":"stuck","status":"cancelled"' \
  || { echo "serve smoke: cancel did not land"; exit 1; }

# SIGTERM with in-flight work: the drain cancels the straggler, the
# process exits 0, and the cache snapshot it writes is loadable.
SERVE_SNAP=build-asan/tier1_serve_snapshot.bkrc
SERVE_FIFO=build-asan/tier1_serve_fifo
rm -f "$SERVE_SNAP" "$SERVE_FIFO"
mkfifo "$SERVE_FIFO"
"$SERVE_BIN" -workers 1 -cache_file "$SERVE_SNAP" -drain_ms 1000 \
  < "$SERVE_FIFO" > /dev/null 2>&1 &
SERVE_PID=$!
exec 9> "$SERVE_FIFO"
echo '{"op":"solve","id":"seed","matrix":"poisson2d:16","method":"gcrodr"}' >&9
sleep 2
echo '{"op":"solve","id":"stuck","matrix":"poisson2d:32","method":"gmres","tol":0,"max_iterations":100000000}' >&9
sleep 1
kill -TERM "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
exec 9>&-
rm -f "$SERVE_FIFO"
[[ "$SERVE_RC" == 0 ]] \
  || { echo "serve smoke: SIGTERM drain exited $SERVE_RC"; exit 1; }
"$SERVE_BIN" -check_snapshot "$SERVE_SNAP" \
  || { echo "serve smoke: shutdown snapshot not loadable"; exit 1; }

echo "==> benchmark smoke: every perfbench workload at smoke size"
# The benchmark's own tests (perfbench/test_perfbench.py) build and run
# each workload untraced and traced; every answer is re-checked against
# its true residual, so a solver change that breaks a workload fails here
# rather than in the benchmark run.
python3 perfbench/test_perfbench.py

echo "==> static analysis (bkr-lint + bkr-analyze + bkr-hotpath + bkr-fpflow) + TSan concurrency stress"
scripts/analyze.sh --lint --tsan

echo "==> tier-1 OK"
