#!/usr/bin/env bash
# The CI gate, runnable locally, in named tiers:
#
#   ci.sh lint     formatting, clippy, source-hygiene greps
#   ci.sh test     hermetic release build + full test suite + property suites
#   ci.sh golden   end-to-end smokes: golden sweeps, kill-and-resume,
#                  telemetry determinism (memo on/off, tick/event, jobs)
#   ci.sh perf     sim_throughput and models benches + perf gate
#                  (BENCH_sim.json ratios vs the committed floors, and
#                  BENCH_models.json medians vs the committed ceilings
#                  in BENCH_baseline.json)
#   ci.sh serve    daemon crash-recovery smoke (kill -9 mid-batch,
#                  restart at a different --jobs, byte-for-byte response
#                  diff) + seeded chaos run with a warning-free
#                  telemetry capture
#   ci.sh dse      sharded campaign smoke: partition invariance
#                  (different --shards/--jobs merge to identical curve
#                  bytes), kill -9 of a worker AND the supervisor
#                  followed by --resume, a seeded shard-chaos run that
#                  must reach full coverage, and a permanently hostile
#                  shard that must exit 3 with a FAILED manifest line
#   ci.sh platform cross-platform gate: golden sweep replay per
#                  built-in profile (--jobs 1 vs 4), registry rejection
#                  message, and state-store isolation (a campaign under
#                  one platform refuses another's journals loudly)
#   ci.sh attr     contention-attribution gate: the tightness audit
#                  must report zero violations (observed <= bound) on
#                  every builtin platform and scenario, the committed
#                  golden attribution matrix must replay byte-for-byte
#                  across worker counts and timing kernels, and the
#                  attribution telemetry stream must pass the schema
#                  lint warning-free
#   ci.sh all      every tier in order (the default); perf runs
#                  non-gating here so a slow local machine cannot fail
#                  the full gate, exactly as the old monolithic script
#                  behaved
#
# The build is fully offline — the workspace has no external
# dependencies and Cargo.lock is committed — so `--offline` both
# enforces hermeticity and catches accidental dependency creep.
set -euo pipefail
cd "$(dirname "$0")"

SMOKE_DIR=""
cleanup() { [ -n "$SMOKE_DIR" ] && rm -rf "$SMOKE_DIR"; }
trap cleanup EXIT

stage_lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (warnings are errors)"
    # Library crates additionally carry
    #   #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
    # at their roots, so a stray unwrap()/expect() outside #[cfg(test)]
    # code fails this step.
    cargo clippy --workspace --all-targets --offline -- -D warnings

    echo "==> unwrap/expect deny attribute present in every crate root"
    for root in src/lib.rs crates/*/src/lib.rs; do
        grep -q 'deny(clippy::unwrap_used, clippy::expect_used)' "$root" \
            || { echo "missing unwrap/expect deny attribute: $root"; exit 1; }
    done

    echo "==> no per-cycle tick loops outside the reference module"
    # The event kernel owns timing; only crates/tc27x-sim/src/reference.rs
    # (the per-cycle stepper) and crates/tc27x-sim/src/memo.rs (the block
    # interpreter, which replays the stepper's per-cycle semantics to
    # record a block) may advance a clock one cycle at a time. Both
    # spellings are caught: `now += 1` and `now = <...>now + 1`. The
    # single intentional site in the event kernel — the one-cycle
    # execute step — is allowlisted with a `tick-loop-ok` marker.
    if grep -rn --include='*.rs' --exclude=reference.rs --exclude=memo.rs \
        -E '(now|cycle|cyc)\s*(\+=\s*1\b|=\s*[a-z_.]*(now|cycle|cyc)\s*\+\s*1\b)' \
        crates/tc27x-sim/src | grep -v 'tick-loop-ok'; then
        echo "per-cycle tick loop found outside reference.rs / memo.rs"
        exit 1
    fi

    echo "==> Table 2 service latencies live only in the platform profiles"
    # The paper's slave service times (16 pf, 11/21 lmu, 43 dfl, 12
    # sequential) are platform facts, not model or simulator constants:
    # the only place a service-latency field may be assigned one of them
    # literally is a profile definition in crates/platform. Comment
    # lines are ignored; a legitimate stray site can carry a
    # `table2-ok` marker.
    if grep -rnE --include='*.rs' \
        '(service_sequential|writeback_service|service):\s*(10|11|12|16|21|42|43)\b' \
        src crates \
        | grep -v '^crates/platform/src' \
        | grep -vE ':[0-9]+:\s*//' \
        | grep -v 'table2-ok'; then
        echo "Table 2 service latency hard-coded outside crates/platform"
        exit 1
    fi
}

stage_test() {
    echo "==> cargo build --release --offline"
    cargo build --workspace --release --offline

    echo "==> cargo test --offline"
    cargo test --workspace -q --offline

    echo "==> fault-injection property suite (1,000 seeded trials)"
    cargo test -q --offline -p mbta --test fault_injection

    echo "==> engine equivalence property suite (tick vs event vs memo-off, 500 seeded cases)"
    cargo test -q --offline -p tc27x-sim --test engine_equivalence

    echo "==> block-memo adversarial suite (mid-block SRI posts, co-run warps)"
    cargo test -q --offline -p tc27x-sim --test memo_adversarial

    echo "==> journal recovery property suite (replay idempotence, torn records)"
    cargo test -q --offline -p mbta --test journal_recovery
}

stage_golden() {
    echo "==> golden sweep regression (byte-identical CSV, fallback rates)"
    cargo test -q --offline -p contention-bench --test golden_sweep

    SMOKE_DIR="$(mktemp -d)"
    SWEEP=target/release/sweep
    cargo build --release --offline -p contention-bench --bin sweep

    echo "==> kill-and-resume smoke test (journal truncated mid-campaign, memo enabled)"
    # A journaled sweep, its journal torn mid-file as a crash would
    # leave it, then resumed: the resumed CSV must be byte-identical to
    # the uninterrupted golden capture. The sweep runs with the block
    # memo at its default (enabled), so the journal keys and CSV must be
    # untouched by memoization.
    "$SWEEP" --scenario sc2 --jobs 4 --engine event --journal "$SMOKE_DIR/sweep.journal" \
        > "$SMOKE_DIR/full.csv" 2> /dev/null
    # Simulate the crash: drop the final record's tail (every record is
    # far longer than 3 bytes, so this always tears the last line).
    SIZE=$(wc -c < "$SMOKE_DIR/sweep.journal")
    head -c "$((SIZE - 3))" "$SMOKE_DIR/sweep.journal" > "$SMOKE_DIR/torn.journal"
    "$SWEEP" --scenario sc2 --jobs 1 --engine event --resume "$SMOKE_DIR/torn.journal" \
        > "$SMOKE_DIR/resumed.csv" 2> "$SMOKE_DIR/resume.log"
    diff -u crates/bench/tests/golden/sweep_sc2.csv "$SMOKE_DIR/resumed.csv" \
        || { echo "resumed sweep CSV diverged from the golden capture"; exit 1; }
    diff -u "$SMOKE_DIR/full.csv" "$SMOKE_DIR/resumed.csv" \
        || { echo "resumed sweep CSV diverged from the uninterrupted run"; exit 1; }
    grep -q "torn trailing record truncated" "$SMOKE_DIR/resume.log" \
        || { echo "torn-record truncation was not reported"; cat "$SMOKE_DIR/resume.log"; exit 1; }

    echo "==> golden sweep under the tick stepper and with the memo disabled"
    # The golden CSV was captured under the default (event, memoized)
    # configuration; the reference stepper and the memo-free event
    # kernel must both reproduce it byte for byte.
    "$SWEEP" --scenario sc2 --jobs 4 --engine tick > "$SMOKE_DIR/tick.csv" 2> /dev/null
    diff -u crates/bench/tests/golden/sweep_sc2.csv "$SMOKE_DIR/tick.csv" \
        || { echo "tick-engine sweep CSV diverged from the golden capture"; exit 1; }
    "$SWEEP" --scenario sc2 --jobs 4 --engine event --no-block-memo \
        > "$SMOKE_DIR/nomemo.csv" 2> /dev/null
    diff -u crates/bench/tests/golden/sweep_sc2.csv "$SMOKE_DIR/nomemo.csv" \
        || { echo "memo-free sweep CSV diverged from the golden capture"; exit 1; }

    echo "==> telemetry determinism gate (schema lint, cross-jobs/engine/memo det identity)"
    # The Scenario 1 sweep with a recorder attached: every record must
    # pass the schema lint, and — because sc1's default solve budget
    # never falls back (asserted by golden_sweep) — the run must prove
    # itself warning-free (--deny-warn). The deterministic subset must
    # be byte-identical across worker counts, timing kernels and the
    # memo toggle (memo statistics live in the nondeterministic profile
    # records), and the Chrome export must be a valid trace. (sc2
    # legitimately emits an ilp.fallback warning at the default budget,
    # so it is not used here.)
    LINT=target/release/telemetry_lint
    cargo build --release --offline -p contention-bench --bin telemetry_lint
    "$SWEEP" --scenario sc1 --jobs 1 --engine event --telemetry "$SMOKE_DIR/t1.jsonl" \
        > /dev/null 2> /dev/null
    "$SWEEP" --scenario sc1 --jobs 4 --engine event --telemetry "$SMOKE_DIR/t4.jsonl" \
        > /dev/null 2> /dev/null
    "$SWEEP" --scenario sc1 --jobs 4 --engine tick --telemetry "$SMOKE_DIR/ttick.jsonl" \
        > /dev/null 2> /dev/null
    "$SWEEP" --scenario sc1 --jobs 4 --engine event --no-block-memo \
        --telemetry "$SMOKE_DIR/tnomemo.jsonl" > /dev/null 2> /dev/null
    "$LINT" "$SMOKE_DIR/t1.jsonl" --deny-warn --det-diff "$SMOKE_DIR/t4.jsonl" \
        || { echo "telemetry det subset differs across --jobs"; exit 1; }
    "$LINT" "$SMOKE_DIR/t1.jsonl" --deny-warn --det-diff "$SMOKE_DIR/ttick.jsonl" \
        || { echo "telemetry det subset differs across timing kernels"; exit 1; }
    "$LINT" "$SMOKE_DIR/t1.jsonl" --deny-warn --det-diff "$SMOKE_DIR/tnomemo.jsonl" \
        || { echo "telemetry det subset differs across the memo toggle"; exit 1; }
    "$SWEEP" --scenario sc1 --jobs 2 --telemetry "$SMOKE_DIR/t.trace:chrome" \
        > /dev/null 2> /dev/null
    "$LINT" --chrome "$SMOKE_DIR/t.trace" \
        || { echo "chrome trace export failed validation"; exit 1; }
}

stage_perf() {
    echo "==> simulator throughput bench (writes BENCH_sim.json)"
    # Tick vs event vs event-without-memo wall-clock on the Table 2
    # probe mix; asserts bit-identity across all three configurations
    # and records machine-readable speedup ratios.
    cargo bench --offline -p contention-bench --bench sim_throughput

    echo "==> model-evaluation bench (writes BENCH_models.json)"
    # Includes the Scenario-2 Evaluator::bound solve at the default
    # 128-node budget, whose median has an absolute ceiling.
    cargo bench --offline -p contention-bench --bench models

    echo "==> perf-regression gate (ratios vs committed floors, medians vs ceilings)"
    cargo build --release --offline -p contention-bench --bin perf_gate
    target/release/perf_gate BENCH_baseline.json BENCH_sim.json BENCH_models.json
}

stage_serve() {
    # Re-point the smoke dir so `ci.sh all` does not accumulate the
    # golden stage's scratch files.
    [ -n "$SMOKE_DIR" ] && rm -rf "$SMOKE_DIR"
    SMOKE_DIR="$(mktemp -d)"
    SERVE=target/release/contention-serve
    CLIENT=target/release/serve-client
    CHAOS=target/release/serve-chaos
    LINT=target/release/telemetry_lint
    cargo build --release --offline -p contention-serve
    cargo build --release --offline -p contention-bench --bin telemetry_lint

    # A mixed batch: Δcont bounds across scenarios, a budget-1 request
    # that must degrade to the fTC fallback (and say so), a soundness
    # sweep and an RTA query, interleaved across two tenants.
    cat > "$SMOKE_DIR/batch.jsonl" <<'EOF'
{"id": "q1", "tenant": "alpha", "kind": "bound", "scenario": "sc1", "level": "high"}
{"id": "q2", "tenant": "beta", "kind": "bound", "scenario": "low", "level": "medium"}
{"id": "q3", "tenant": "alpha", "kind": "bound", "scenario": "low", "level": "high", "budget": 1}
{"id": "q4", "tenant": "beta", "kind": "sweep", "scenario": "low", "level": "low"}
{"id": "q5", "tenant": "alpha", "kind": "rta", "scenario": "low", "level": "medium", "period": 50000000}
{"id": "q6", "tenant": "beta", "kind": "bound", "scenario": "sc2", "level": "low"}
EOF
    echo '{"id": "bye", "tenant": "ops", "kind": "shutdown"}' > "$SMOKE_DIR/shutdown.jsonl"

    # Ready means the startup line is out (printed after the listeners
    # bound), not merely that the socket file exists — a stale socket
    # from a kill -9'd predecessor would fool the latter.
    wait_ready() {
        for _ in $(seq 1 100); do
            grep -q "contention-serve: listening" "$1" 2> /dev/null && return 0
            sleep 0.1
        done
        echo "daemon never became ready:"; cat "$1"; exit 1
    }

    echo "==> serve: uninterrupted reference run"
    "$SERVE" --state "$SMOKE_DIR/state_a" --unix "$SMOKE_DIR/a.sock" --jobs 2 \
        > "$SMOKE_DIR/serve_a.log" 2>&1 &
    SERVE_PID=$!
    wait_ready "$SMOKE_DIR/serve_a.log"
    "$CLIENT" --addr "unix:$SMOKE_DIR/a.sock" --batch "$SMOKE_DIR/batch.jsonl" \
        --out "$SMOKE_DIR/a.jsonl"
    "$CLIENT" --addr "unix:$SMOKE_DIR/a.sock" --batch "$SMOKE_DIR/shutdown.jsonl" > /dev/null
    wait "$SERVE_PID"

    echo "==> serve: kill -9 mid-batch, restart at a different --jobs, replay"
    "$SERVE" --state "$SMOKE_DIR/state_b" --unix "$SMOKE_DIR/b.sock" --jobs 2 \
        > "$SMOKE_DIR/serve_b1.log" 2>&1 &
    SERVE_PID=$!
    wait_ready "$SMOKE_DIR/serve_b1.log"
    "$CLIENT" --addr "unix:$SMOKE_DIR/b.sock" --batch "$SMOKE_DIR/batch.jsonl" \
        --limit 3 --out "$SMOKE_DIR/half.jsonl"
    kill -9 "$SERVE_PID"
    wait "$SERVE_PID" 2> /dev/null || true
    "$SERVE" --state "$SMOKE_DIR/state_b" --unix "$SMOKE_DIR/b.sock" --jobs 1 \
        > "$SMOKE_DIR/serve_b2.log" 2>&1 &
    SERVE_PID=$!
    wait_ready "$SMOKE_DIR/serve_b2.log"
    grep -Eq "recovered [1-9][0-9]* response" "$SMOKE_DIR/serve_b2.log" \
        || { echo "restart recovered nothing from the killed daemon's stores"; \
             cat "$SMOKE_DIR/serve_b2.log"; exit 1; }
    "$CLIENT" --addr "unix:$SMOKE_DIR/b.sock" --batch "$SMOKE_DIR/batch.jsonl" \
        --out "$SMOKE_DIR/b.jsonl"
    "$CLIENT" --addr "unix:$SMOKE_DIR/b.sock" --batch "$SMOKE_DIR/shutdown.jsonl" > /dev/null
    wait "$SERVE_PID"
    diff -u "$SMOKE_DIR/a.jsonl" "$SMOKE_DIR/b.jsonl" \
        || { echo "replayed responses diverged from the uninterrupted run"; exit 1; }
    grep -q '"provenance":"fallback=ftc"' "$SMOKE_DIR/b.jsonl" \
        || { echo "budget-1 request did not degrade with explicit provenance"; exit 1; }
    grep -q '"provenance":"ilp"' "$SMOKE_DIR/b.jsonl" \
        || { echo "no exact-ILP answer in the batch"; exit 1; }

    echo "==> serve: seeded chaos run (tiny queue cap, telemetry must stay warning-free)"
    "$SERVE" --state "$SMOKE_DIR/state_c" --unix "$SMOKE_DIR/c.sock" --jobs 2 \
        --workers 1 --queue-cap 2 --telemetry "$SMOKE_DIR/serve_t.jsonl" \
        > "$SMOKE_DIR/serve_c.log" 2>&1 &
    SERVE_PID=$!
    wait_ready "$SMOKE_DIR/serve_c.log"
    "$CHAOS" --addr "unix:$SMOKE_DIR/c.sock" --seed 42 --ops 40 \
        | tee "$SMOKE_DIR/chaos.log"
    grep -Eq "overloaded [1-9]" "$SMOKE_DIR/chaos.log" \
        || { echo "chaos run never tripped admission control"; exit 1; }
    "$CLIENT" --addr "unix:$SMOKE_DIR/c.sock" --batch "$SMOKE_DIR/shutdown.jsonl" > /dev/null
    wait "$SERVE_PID"
    "$LINT" "$SMOKE_DIR/serve_t.jsonl" --deny-warn \
        || { echo "daemon telemetry failed the lint (warnings under chaos?)"; exit 1; }
}

stage_dse() {
    [ -n "$SMOKE_DIR" ] && rm -rf "$SMOKE_DIR"
    SMOKE_DIR="$(mktemp -d)"
    SUP=target/release/dse-supervisor
    WORKER=target/release/dse-worker
    cargo build --release --offline -p dse
    # A small campaign: 5 utilization levels x 6 task sets = 30 points.
    CFG=(--seed 7 --utils 5 --sets 6 --tasks 3 --worker-bin "$WORKER")

    echo "==> dse: reference campaign (3 shards, 3 jobs)"
    "$SUP" --state-dir "$SMOKE_DIR/ref" --shards 3 --jobs 3 "${CFG[@]}" > /dev/null
    grep -q "# status complete" "$SMOKE_DIR/ref/manifest.txt" \
        || { echo "reference campaign did not complete"; exit 1; }

    echo "==> dse: partition invariance (5 shards, 2 jobs must merge to identical bytes)"
    "$SUP" --state-dir "$SMOKE_DIR/wide" --shards 5 --jobs 2 "${CFG[@]}" > /dev/null
    diff -u "$SMOKE_DIR/ref/curves.txt" "$SMOKE_DIR/wide/curves.txt" \
        || { echo "curves depend on the shard/worker split"; exit 1; }

    echo "==> dse: kill -9 a worker and the supervisor mid-campaign, then --resume"
    "$SUP" --state-dir "$SMOKE_DIR/victim" --shards 3 --jobs 3 --point-delay-ms 60 \
        "${CFG[@]}" > /dev/null 2>&1 &
    SUP_PID=$!
    for _ in $(seq 1 100); do
        [ -f "$SMOKE_DIR/victim/shard-0000.hb" ] && break
        sleep 0.1
    done
    [ -f "$SMOKE_DIR/victim/shard-0000.hb" ] \
        || { echo "no worker made progress before the kill"; exit 1; }
    kill -9 "$(cat "$SMOKE_DIR/victim/shard-0000.pid")" 2> /dev/null || true
    sleep 0.3
    kill -9 "$SUP_PID" 2> /dev/null || true
    wait "$SUP_PID" 2> /dev/null || true
    # Orphaned workers survive the supervisor's death; take them down
    # the way an init system would before resuming.
    for pidfile in "$SMOKE_DIR"/victim/shard-*.pid; do
        [ -f "$pidfile" ] && kill -9 "$(cat "$pidfile")" 2> /dev/null || true
    done
    "$SUP" --state-dir "$SMOKE_DIR/victim" --shards 3 --jobs 3 --resume \
        "${CFG[@]}" > /dev/null
    diff -u "$SMOKE_DIR/ref/curves.txt" "$SMOKE_DIR/victim/curves.txt" \
        || { echo "resumed campaign diverged from the undisturbed run"; exit 1; }

    echo "==> dse: seeded shard chaos (kills + torn tails) must still reach full coverage"
    "$SUP" --state-dir "$SMOKE_DIR/chaos" --shards 2 --jobs 2 \
        --max-attempts 10 --backoff-ms 0 \
        --chaos-seed 11 --chaos-kill 60 --chaos-tear 700 \
        "${CFG[@]}" > /dev/null 2> /dev/null
    diff -u "$SMOKE_DIR/ref/curves.txt" "$SMOKE_DIR/chaos/curves.txt" \
        || { echo "chaos campaign diverged from the undisturbed run"; exit 1; }
    grep -q "# coverage 30/30 = 1.0000" "$SMOKE_DIR/chaos/manifest.txt" \
        || { echo "chaos campaign did not reach full coverage"; \
             cat "$SMOKE_DIR/chaos/manifest.txt"; exit 1; }

    echo "==> dse: a permanently hostile shard must degrade loudly (exit 3, FAILED manifest)"
    RC=0
    "$SUP" --state-dir "$SMOKE_DIR/partial" --shards 2 --jobs 2 \
        --max-attempts 2 --backoff-ms 0 \
        --chaos-seed 1 --chaos-kill 1000 --chaos-shard 1 \
        "${CFG[@]}" > /dev/null 2> /dev/null || RC=$?
    [ "$RC" -eq 3 ] \
        || { echo "partial campaign exited $RC, expected the distinct status 3"; exit 1; }
    grep -q "# status partial" "$SMOKE_DIR/partial/manifest.txt" \
        || { echo "manifest does not admit partial coverage"; exit 1; }
    grep -q "FAILED" "$SMOKE_DIR/partial/manifest.txt" \
        || { echo "manifest does not name the failed shard"; exit 1; }
}

stage_platform() {
    [ -n "$SMOKE_DIR" ] && rm -rf "$SMOKE_DIR"
    SMOKE_DIR="$(mktemp -d)"
    SWEEP=target/release/sweep
    SUP=target/release/dse-supervisor
    WORKER=target/release/dse-worker
    cargo build --release --offline -p contention-bench --bin sweep
    cargo build --release --offline -p dse

    echo "==> platform: golden sweep replay per profile (--jobs 1 vs 4)"
    # Each built-in profile has a committed golden; the sweep must
    # reproduce it byte for byte at any worker count. The explicit
    # `--platform tc27x` spelling must equal the flagless default.
    for jobs in 1 4; do
        "$SWEEP" --scenario sc2 --platform tc27x --jobs "$jobs" \
            > "$SMOKE_DIR/def.csv" 2> /dev/null
        diff -u crates/bench/tests/golden/sweep_sc2.csv "$SMOKE_DIR/def.csv" \
            || { echo "explicit --platform tc27x diverged from the default golden"; exit 1; }
        "$SWEEP" --scenario sc2 --platform tc27x-tdma --jobs "$jobs" \
            > "$SMOKE_DIR/tdma.csv" 2> /dev/null
        diff -u crates/bench/tests/golden/sweep_sc2_tdma.csv "$SMOKE_DIR/tdma.csv" \
            || { echo "tc27x-tdma sweep diverged from its golden at --jobs $jobs"; exit 1; }
        "$SWEEP" --scenario low --platform ahb2 --jobs "$jobs" \
            > "$SMOKE_DIR/ahb2.csv" 2> /dev/null
        diff -u crates/bench/tests/golden/sweep_low_ahb2.csv "$SMOKE_DIR/ahb2.csv" \
            || { echo "ahb2 sweep diverged from its golden at --jobs $jobs"; exit 1; }
    done

    echo "==> platform: unknown profile is rejected with the registry listing"
    if "$SWEEP" --platform vax > /dev/null 2> "$SMOKE_DIR/err.log"; then
        echo "unknown platform was accepted"; exit 1
    fi
    grep -q "known platforms: .*tc27x-tdma" "$SMOKE_DIR/err.log" \
        || { echo "rejection does not list the built-in profiles"; \
             cat "$SMOKE_DIR/err.log"; exit 1; }

    echo "==> platform: cross-platform state isolation (alien journals refused loudly)"
    # A campaign's persisted state binds its platform fingerprint: a
    # resume of a default-platform state dir under tc27x-tdma must not
    # silently reuse (or corrupt) the alien journals — it fails loudly,
    # while a fresh tdma campaign completes and yields distinct curves.
    CFG=(--shards 2 --jobs 2 --seed 7 --utils 4 --sets 4 --tasks 3 --worker-bin "$WORKER")
    "$SUP" --state-dir "$SMOKE_DIR/def" "${CFG[@]}" > /dev/null
    RC=0
    "$SUP" --state-dir "$SMOKE_DIR/def" --platform tc27x-tdma --resume \
        "${CFG[@]}" > /dev/null 2> /dev/null || RC=$?
    [ "$RC" -ne 0 ] \
        || { echo "tdma resume silently consumed a default-platform state dir"; exit 1; }
    grep -q "different campaign configuration" "$SMOKE_DIR"/def/shard-*.log \
        || { echo "alien journal was not refused with an explicit mismatch error"; exit 1; }
    "$SUP" --state-dir "$SMOKE_DIR/tdma" --platform tc27x-tdma "${CFG[@]}" > /dev/null
    grep -q "# status complete" "$SMOKE_DIR/tdma/manifest.txt" \
        || { echo "fresh tdma campaign did not complete"; exit 1; }
    if cmp -s "$SMOKE_DIR/def/curves.txt" "$SMOKE_DIR/tdma/curves.txt"; then
        echo "tdma curves are identical to the default platform's"; exit 1
    fi
}

stage_attr() {
    [ -n "$SMOKE_DIR" ] && rm -rf "$SMOKE_DIR"
    SMOKE_DIR="$(mktemp -d)"
    MAIN=target/release/aurix-contention
    LINT=target/release/telemetry_lint
    cargo build --release --offline
    cargo build --release --offline -p contention-bench --bin telemetry_lint

    echo "==> attr: tightness audit on every builtin platform (observed <= bound)"
    # Every audited bound must hold for every access class, slave and
    # scenario; a single VIOLATION row means an unsound model and fails
    # the gate outright.
    for p in tc27x tc27x-tdma ahb2; do
        for s in sc1 sc2; do
            "$MAIN" --platform "$p" --jobs 1 contention-attr --scenario "$s" \
                > "$SMOKE_DIR/attr_${p}_${s}.txt" 2> /dev/null
            if grep -q "VIOLATION" "$SMOKE_DIR/attr_${p}_${s}.txt"; then
                echo "bound violation on $p/$s:"
                cat "$SMOKE_DIR/attr_${p}_${s}.txt"; exit 1
            fi
            grep -q "violations: 0" "$SMOKE_DIR/attr_${p}_${s}.txt" \
                || { echo "no tightness verdict in the $p/$s report"; \
                     cat "$SMOKE_DIR/attr_${p}_${s}.txt"; exit 1; }
        done
    done

    echo "==> attr: golden attribution matrix replay (jobs 1 vs 4, event vs tick)"
    # The committed sc2 attribution stream must reproduce byte-for-byte
    # at any worker count and under either timing kernel — the ledger
    # inherits the grant sequence's bit-identity.
    for variant in "--jobs 1 --engine event" "--jobs 4 --engine event" "--jobs 4 --engine tick"; do
        # shellcheck disable=SC2086  # variant is a flag list on purpose
        "$MAIN" $variant --attribution "$SMOKE_DIR/attr.jsonl" \
            contention-attr --scenario sc2 > /dev/null 2> /dev/null
        diff -u crates/bench/tests/golden/attribution_sc2.jsonl "$SMOKE_DIR/attr.jsonl" \
            || { echo "attribution stream diverged from the golden at $variant"; exit 1; }
    done

    echo "==> attr: attribution telemetry passes the schema lint warning-free"
    "$LINT" "$SMOKE_DIR/attr.jsonl" --deny-warn \
        || { echo "attribution telemetry failed the lint"; exit 1; }
}

STAGE="${1:-all}"
case "$STAGE" in
    lint)     stage_lint ;;
    test)     stage_test ;;
    golden)   stage_golden ;;
    perf)     stage_perf ;;
    serve)    stage_serve ;;
    dse)      stage_dse ;;
    platform) stage_platform ;;
    attr)     stage_attr ;;
    all)
        stage_lint
        stage_test
        stage_golden
        stage_serve
        stage_dse
        stage_platform
        stage_attr
        # Informational in the full gate: a slow or noisy local machine
        # must not fail `ci.sh all`. Run `ci.sh perf` to gate.
        stage_perf || echo "warning: perf stage failed (non-gating in 'all')"
        ;;
    *)
        echo "usage: $0 [lint|test|golden|perf|serve|dse|platform|attr|all]" >&2
        exit 2
        ;;
esac

echo "==> CI stage '$STAGE' passed"
