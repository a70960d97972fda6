#!/usr/bin/env bash
# Tier-1 verification gate, hermetic by construction: every step runs with
# --offline so a regression that reintroduces a registry dependency fails
# here rather than on the first airgapped machine.
#
#   scripts/verify.sh          # build + test + smokes
#   scripts/verify.sh --fast   # build + test only
#
# Every scratch file lands under target/verify, so a run leaves the tree as
# it found it. Timing is the repository benchmark's job (BENCHMARK.json);
# the bitwise contracts it does not time are workspace tests.
set -euo pipefail
cd "$(dirname "$0")/.."
out=target/verify
mkdir -p "$out"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test --workspace --offline"
cargo test -q --workspace --offline

echo "==> serve integration test (train -> save -> serve -> bitwise compare)"
cargo test -q --release --offline -p esp-serve --test serve_integration
cargo test -q --release --offline -p esp-artifact --test roundtrip

if [[ "$fast" -eq 0 ]]; then
    echo "==> repository benchmark package (builds against the serve/obs items it calls)"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

    echo "==> corpus lint gate (full-corpus findings vs results/lint_golden.json)"
    cargo run --release --offline -q -p esp-bench --bin esp_lint -- \
        --json "$out/lint_report.json" > /dev/null
    diff -u results/lint_golden.json "$out/lint_report.json" \
        || { echo "lint findings drifted from the golden report — if the change \
is intentional, regenerate results/lint_golden.json with esp_lint --json" >&2; exit 1; }

    echo "==> static-vs-profile oracle (decided branches must match execution)"
    cargo run --release --offline -q -p esp-bench --bin esp_lint -- \
        --subset sort,grep,sed,gzip --oracle | tee "$out/lint_oracle.txt"
    grep -q 'oracle: PASS' "$out/lint_oracle.txt" \
        || { echo "a statically-decided branch contradicts its execution profile" >&2; exit 1; }

    echo "==> serve smoke (esp-serve --http-addr; esp-client bench with profile replay, then /metrics, /healthz, /sitez)"
    ./target/release/esp-serve --synthetic 24,8,7 --addr 127.0.0.1:0 \
        --http-addr 127.0.0.1:0 2> "$out/serve_sidecar.log" &
    serve_pid=$!
    tcp_addr=""; http_addr=""
    for _ in $(seq 1 100); do
        tcp_addr=$(sed -n 's/^esp-serve listening on \([^ ]*\) .*/\1/p' "$out/serve_sidecar.log")
        http_addr=$(sed -n 's|^esp-serve telemetry on http://\([^ ]*\) .*|\1|p' "$out/serve_sidecar.log")
        [[ -n "$tcp_addr" && -n "$http_addr" ]] && break
        sleep 0.1
    done
    [[ -n "$tcp_addr" && -n "$http_addr" ]] \
        || { echo "esp-serve did not print its bound addresses:" >&2; \
             cat "$out/serve_sidecar.log" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client bench --addr "$tcp_addr" --requests 100 --profile-rate 1.0 \
        || { echo "esp-client bench failed against the running server" >&2; \
             kill "$serve_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client get --addr "$http_addr" --path /metrics > "$out/sidecar_metrics.prom"
    for series in esp_serve_requests_total esp_serve_request_us \
                  esp_serve_predict_compute_us esp_serve_batch_size \
                  esp_serve_shards esp_serve_shard_0_queue_depth \
                  esp_serve_cache_entries \
                  esp_serve_model_version esp_serve_reloads_total \
                  esp_ledger_sites esp_ledger_profile_records_total \
                  esp_ledger_observed_miss_rate esp_ledger_calibration_ece; do
        grep -q "$series" "$out/sidecar_metrics.prom" \
            || { echo "/metrics is missing $series" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    done
    miss_rate=$(sed -n 's/^esp_ledger_observed_miss_rate \([^ ]*\)$/\1/p' "$out/sidecar_metrics.prom")
    [[ "$miss_rate" =~ ^[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$ ]] \
        || { echo "profile replay ran but esp_ledger_observed_miss_rate is '$miss_rate'" >&2; \
             kill "$serve_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client get --addr "$http_addr" --path /healthz > "$out/sidecar_healthz.json"
    grep -q '"protocol_version": 4' "$out/sidecar_healthz.json" \
        || { echo "/healthz is missing protocol_version 4" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    grep -q '"ledger_enabled": true' "$out/sidecar_healthz.json" \
        || { echo "/healthz says the default-on ledger is off" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    grep -q '"shard_health": \[' "$out/sidecar_healthz.json" \
        || { echo "/healthz is missing the shard_health array" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client get --addr "$http_addr" --path '/sitez?top=5' > "$out/sidecar_sitez.json"
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$out/sidecar_sitez.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert isinstance(doc.get("sites"), list), "/sitez has no sites array"
summary = doc.get("summary")
assert isinstance(summary, dict), "/sitez has no summary object"
for k in ("sites", "served", "profile_records", "observed_miss_rate", "calibration_ece"):
    assert k in summary, f"/sitez summary is missing {k!r}"
print(f"sitez OK: {len(doc['sites'])} hot sites, {summary['served']} served")
PYEOF
    else
        grep -q '"sites": \[' "$out/sidecar_sitez.json" \
            || { echo "/sitez is missing the sites array" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
    fi
    ./target/release/esp-client shutdown --addr "$tcp_addr" > /dev/null
    wait "$serve_pid"

    echo "==> hot-reload smoke (2 shards, registry publish mid-run, version gauge flips)"
    rm -rf "$out/reload_registry"
    ./target/release/esp-client registry publish --dir "$out/reload_registry" \
        --name smoke --synthetic 16,6,41 > /dev/null
    ./target/release/esp-serve --registry "$out/reload_registry" --name smoke \
        --shards 2 --reload-watch 50 --addr 127.0.0.1:0 \
        --http-addr 127.0.0.1:0 2> "$out/serve_reload.log" &
    reload_pid=$!
    tcp_addr=""; http_addr=""
    for _ in $(seq 1 100); do
        tcp_addr=$(sed -n 's/^esp-serve listening on \([^ ]*\) .*/\1/p' "$out/serve_reload.log")
        http_addr=$(sed -n 's|^esp-serve telemetry on http://\([^ ]*\) .*|\1|p' "$out/serve_reload.log")
        [[ -n "$tcp_addr" && -n "$http_addr" ]] && break
        sleep 0.1
    done
    [[ -n "$tcp_addr" && -n "$http_addr" ]] \
        || { echo "esp-serve (reload smoke) did not print its bound addresses:" >&2; \
             cat "$out/serve_reload.log" >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client info --addr "$tcp_addr" --model smoke | grep -q '\[smoke@1\]' \
        || { echo "reload smoke: expected smoke@1 before publish" >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client registry publish --dir "$out/reload_registry" \
        --name smoke --synthetic 16,6,42 > /dev/null
    reloaded=0
    for _ in $(seq 1 100); do
        ./target/release/esp-client get --addr "$http_addr" --path /metrics > "$out/reload_metrics.prom"
        if grep -q '^esp_serve_model_version 2$' "$out/reload_metrics.prom"; then reloaded=1; break; fi
        sleep 0.1
    done
    [[ "$reloaded" -eq 1 ]] \
        || { echo "reload smoke: esp_serve_model_version never reached 2" >&2; \
             kill "$reload_pid" 2>/dev/null; exit 1; }
    grep -q '^esp_serve_reloads_total 1$' "$out/reload_metrics.prom" \
        || { echo "reload smoke: esp_serve_reloads_total != 1" >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    grep -q '^esp_serve_shards 2$' "$out/reload_metrics.prom" \
        || { echo "reload smoke: esp_serve_shards != 2" >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    for family in esp_serve_shard_0_queue_depth esp_serve_shard_1_queue_depth \
                  esp_serve_cache_entries; do
        grep -q "^${family} " "$out/reload_metrics.prom" \
            || { echo "reload smoke: missing ${family}" >&2; \
                 kill "$reload_pid" 2>/dev/null; exit 1; }
    done
    ./target/release/esp-client info --addr "$tcp_addr" --model smoke@2 | grep -q '\[smoke@2\]' \
        || { echo "reload smoke: smoke@2 not served after reload" >&2; kill "$reload_pid" 2>/dev/null; exit 1; }
    ./target/release/esp-client shutdown --addr "$tcp_addr" > /dev/null
    wait "$reload_pid"
    rm -rf "$out/reload_registry"

    echo "==> observability smoke (traced Table 4 subset, writes trace + exposition)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        table4 --quick --subset sort,grep,sed,gzip \
        --trace-out "$out/trace_obs.json" --metrics-out "$out/metrics_obs.prom" > /dev/null
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$out/trace_obs.json" <<'PYEOF'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace is empty or not a list"
assert any(e.get("ph") == "X" for e in events), "no complete spans in trace"
names = {e.get("name") for e in events}
for needed in ("build_suite", "table4_fold", "restart", "epoch"):
    assert needed in names, f"trace is missing `{needed}` spans"
print(f"trace OK: {len(events)} events, spans include {sorted(names)[:8]}…")
PYEOF
    else
        # No python3: at least check the trace has the span names in shape.
        for name in build_suite table4_fold epoch; do
            grep -q "\"name\":\"$name\"" "$out/trace_obs.json" \
                || { echo "trace is missing \`$name\` spans" >&2; exit 1; }
        done
    fi
    for fam in esp_runtime_ esp_train_ esp_eval_; do
        grep -q "$fam" "$out/metrics_obs.prom" \
            || { echo "metrics exposition is missing the $fam family" >&2; exit 1; }
    done
    echo "metrics OK: $(grep -c '^# TYPE' "$out/metrics_obs.prom") families exposed"

    echo "==> dynamic-predictor arena smoke (2-program dyn table, cached traces)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        --dynamic --quick --subset sort,grep --trace-dir target/esptraces \
        | tee "$out/table_dyn.txt"
    grep -q 'ESP+TAGE' "$out/table_dyn.txt" \
        || { echo "dyn table is missing the ESP+TAGE hybrid column" >&2; exit 1; }
    grep -Eq 'wins warmup|warmup tie' "$out/table_dyn.txt" \
        || { echo "dyn table is missing the warmup verdict" >&2; exit 1; }

    echo "==> f32 quantization gate (2-fold Table 4 subset, flip bound 0.05)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        table4 --quick --subset sort,grep --precision f32 --flip-bound 0.05 \
        | tee "$out/table4_f32.txt"
    grep -q 'f32_flip_rate=' "$out/table4_f32.txt" \
        || { echo "gate report is missing f32_flip_rate" >&2; exit 1; }
    grep -q 'gate: PASS' "$out/table4_f32.txt" \
        || { echo "f32 flip rate exceeded the 0.05 bound" >&2; exit 1; }

    echo "==> extended-features smoke (2-fold Table 4 subset, extended vs baseline)"
    cargo run --release --offline -q -p esp-bench --bin repro_tables -- \
        table4 --quick --subset sort,grep --features extended \
        | tee "$out/table4_ext.txt"
    grep -q 'extended_vs_baseline:' "$out/table4_ext.txt" \
        || { echo "extended run is missing the extended_vs_baseline delta line" >&2; exit 1; }
fi

echo "==> verify OK"
