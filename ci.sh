#!/usr/bin/env bash
# Full local CI gate: build, tests, formatting, lints.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q -p spe-learners --features fault-injection (fault-injection suite)"
cargo test -q -p spe-learners --features fault-injection

echo "==> cargo test -q --test persistence (save/load round-trip suite)"
cargo test -q --test persistence

echo "==> cargo test -q --test quantized (u8 kernel bit-exactness suite)"
cargo test -q --test quantized

echo "==> cargo test -q --doc"
cargo test -q --doc

echo "==> cargo check --workspace --benches (every criterion bench compiles)"
cargo check --workspace --benches

echo "==> bench_train --quick (smoke; temp cwd so BENCH_train.json is untouched)"
cargo build --release -p spe-bench --bin bench_train
repo_root="$(pwd)"
smoke_dir="$(mktemp -d)"
(cd "$smoke_dir" && "$repo_root/target/release/bench_train" --quick)
rm -rf "$smoke_dir"

echo "==> bench_oocore --smoke (out-of-core vs in-memory AUCPRC parity <= 0.005)"
cargo build --release -p spe-bench --bin bench_oocore
oocore_dir="$(mktemp -d)"
(cd "$oocore_dir" && "$repo_root/target/release/bench_oocore" --smoke)
grep -q '"oocore"' "$oocore_dir/BENCH_train.json"
grep -q '"rss_budget_ratio"' "$oocore_dir/BENCH_train.json"
rm -rf "$oocore_dir"

echo "==> bench_online --smoke (mid-stream drift -> promoted retrain -> AUCPRC recovery)"
cargo build --release -p spe-bench --bin bench_online
online_dir="$(mktemp -d)"
(cd "$online_dir" && "$repo_root/target/release/bench_online" --smoke)
grep -q '"online"' "$online_dir/BENCH_train.json"
grep -q '"recovery_ms"' "$online_dir/BENCH_train.json"
rm -rf "$online_dir"

echo "==> spe_benchmark --smoke (builds against this tree; repeated fits byte-identical, traced fits predict the same bits, every served score matches in-process predict_proba)"
cargo build --release --offline --manifest-path spe_benchmark/Cargo.toml --bin spe_benchmark
bench_dir="$(mktemp -d)"
(cd "$bench_dir" && "$repo_root/spe_benchmark/target/release/spe_benchmark" --smoke --trace 1 \
    --seconds 1 --workload fit-skewed --workload fit-multiclass --workload fit-oocore \
    --workload score-small --workload score-bulk)
rm -rf "$bench_dir"

echo "==> spe_score chunked round trip (CSV stream vs packed shards must fit identical models)"
cargo build --release -p spe-serve --bin spe_score
ooc_dir="$(mktemp -d)"
spe_score_bin="$repo_root/target/release/spe_score"
"$spe_score_bin" gen  --out "$ooc_dir/data.csv" --rows 20000 --seed 9
"$spe_score_bin" pack --input "$ooc_dir/data.csv" --out "$ooc_dir/shards" --rows-per-shard 700
"$spe_score_bin" fit-save --train "$ooc_dir/data.csv" --out "$ooc_dir/csv.spe" \
                          --chunked --chunk-rows 700 --members 5
"$spe_score_bin" fit-save --train "$ooc_dir/shards" --out "$ooc_dir/shard.spe" \
                          --chunked --members 5
"$spe_score_bin" load-score --model "$ooc_dir/csv.spe"   --input "$ooc_dir/data.csv" --out "$ooc_dir/p1.csv"
"$spe_score_bin" load-score --model "$ooc_dir/shard.spe" --input "$ooc_dir/data.csv" --out "$ooc_dir/p2.csv"
cmp "$ooc_dir/p1.csv" "$ooc_dir/p2.csv"
rm -rf "$ooc_dir"

echo "==> bench_serve --smoke (quantized backend selected + BENCH_serve.json schema)"
cargo build --release -p spe-bench --bin bench_serve
serve_dir="$(mktemp -d)"
(cd "$serve_dir" && "$repo_root/target/release/bench_serve" --smoke)
grep -q '"quantized"' "$serve_dir/BENCH_serve.json"
grep -q '"speedup_quantized_batch64"' "$serve_dir/BENCH_serve.json"

echo "==> bench_server --smoke (overload shedding + breaker isolation over TCP, server JSON section)"
cargo build --release -p spe-bench --bin bench_server
(cd "$serve_dir" && "$repo_root/target/release/bench_server" --smoke)
grep -q '"server"' "$serve_dir/BENCH_serve.json"
grep -q '"shed_rate"' "$serve_dir/BENCH_serve.json"
grep -q '"p99_request_us"' "$serve_dir/BENCH_serve.json"
rm -rf "$serve_dir"

echo "==> spe_score round trip (fit-save vs load-score predictions must be bit-identical)"
cargo build --release -p spe-serve --bin spe_score
score_dir="$(mktemp -d)"
spe_score="$repo_root/target/release/spe_score"
"$spe_score" gen        --out "$score_dir/data.csv" --rows 2000 --seed 7
"$spe_score" fit-save   --train "$score_dir/data.csv" --out "$score_dir/model.spe" \
                        --members 5 --preds "$score_dir/p1.csv"
"$spe_score" load-score --model "$score_dir/model.spe" --input "$score_dir/data.csv" \
                        --out "$score_dir/p2.csv"
"$spe_score" inspect    --model "$score_dir/model.spe"
cmp "$score_dir/p1.csv" "$score_dir/p2.csv"

echo "==> spe_server gate (network failure-mode contract: 429 shed, 504 deadline, breaker + self-heal, shadow promote)"
cargo build --release -p spe-server --bin spe_server
"$repo_root/target/release/spe_server" gate --model "$score_dir/model.spe" --data "$score_dir/data.csv"
rm -rf "$score_dir"

echo "==> spe_server online-gate (drifted feedback -> promoted retrain in /metrics, zero scoring downtime)"
"$repo_root/target/release/spe_server" online-gate

echo "==> multi-class smoke gate (4-class fit -> save -> serve one request -> per-class recall floor)"
mc_dir="$(mktemp -d)"
"$spe_score" gen        --out "$mc_dir/mc.csv" --rows 3000 --seed 13 --classes 4
"$spe_score" fit-save   --train "$mc_dir/mc.csv" --out "$mc_dir/mc.spe" \
                        --members 5 --preds "$mc_dir/p1.csv"
"$spe_score" load-score --model "$mc_dir/mc.spe" --input "$mc_dir/mc.csv" --out "$mc_dir/p2.csv"
cmp "$mc_dir/p1.csv" "$mc_dir/p2.csv"
"$spe_score" inspect    --model "$mc_dir/mc.spe" | grep -q "classes:  4"
# Per-class recall floor: argmax over the four class_<c> probability
# columns must recover each true label on >= 50% of its rows.
awk -F, '
  NR == FNR { if (FNR > 1) label[FNR-1] = $NF + 0; next }
  FNR > 1 {
    best = 0; bp = $1
    for (i = 2; i <= NF; i++) if ($i > bp) { bp = $i; best = i - 1 }
    t = label[FNR-1]; total[t]++; if (best == t) hit[t]++
  }
  END {
    bad = 0
    for (c = 0; c < 4; c++) {
      r = (total[c] ? hit[c] / total[c] : 0)
      printf "  class %d recall %.3f (%d/%d)\n", c, r, hit[c], total[c]
      if (r < 0.5) bad = 1
    }
    if (bad) { print "  per-class recall floor (0.5) violated"; exit 1 }
  }
' "$mc_dir/mc.csv" "$mc_dir/p2.csv"
# Serve the 4-class model and push one request through the real server:
# the response must be a k-wide distribution, not a scalar score.
"$repo_root/target/release/spe_server" serve --features 2 --model mc="$mc_dir/mc.spe" \
    --addr 127.0.0.1:0 --port-file "$mc_dir/addr.txt" &
mc_server_pid=$!
for _ in $(seq 1 100); do [ -s "$mc_dir/addr.txt" ] && break; sleep 0.05; done
[ -s "$mc_dir/addr.txt" ] || { kill "$mc_server_pid"; echo "spe_server never wrote its port file"; exit 1; }
mc_addr="$(cat "$mc_dir/addr.txt")"
mc_host="${mc_addr%:*}"; mc_port="${mc_addr##*:}"
mc_body="0.5,0.5"
exec 3<>"/dev/tcp/$mc_host/$mc_port"
printf 'POST /score/mc HTTP/1.1\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
    "${#mc_body}" "$mc_body" >&3
mc_resp="$(cat <&3)"
exec 3<&- 3>&-
echo "$mc_resp" | grep -q '"n_classes":4' || { kill "$mc_server_pid"; echo "k-wide score response missing: $mc_resp"; exit 1; }
exec 3<>"/dev/tcp/$mc_host/$mc_port"
printf 'POST /admin/shutdown HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n' >&3
cat <&3 >/dev/null
exec 3<&- 3>&-
wait "$mc_server_pid"
rm -rf "$mc_dir"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> CI green"
