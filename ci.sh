#!/bin/sh
# CI gauntlet: the workspace must build and test fully offline — zero
# external dependencies is a hard guarantee.
#
# Tier-1 (ROADMAP.md: `cargo build --release && cargo test -q`) covers
# the workspace: the root manifest's `default-members` names the root
# package and every crate, so it runs each crate's unit tests beside the
# integration tests under tests/, the examples and src/lib.rs. What this
# script adds is the benchmark package (its own manifest), the style and
# doc lanes, the invariant and fuzz features and the end-to-end smoke
# lanes: a green Tier-1 implies the unit tests, not those.
#
# Size ledger (non-test source lines; simplicity PRs record before/after):
#   find crates/*/src -name '*.rs' -print0 | xargs -0 awk \
#     'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}'
#   PR 15 (one contention model): 19401 -> 19091
#   PR 16 (one benchmark system): 19091 -> 18480
#   PR 17 (perf: forest on the campaign's threads, pool-prediction table): 18480 -> 18709
#   PR 19 (one campaign value, one durable-write module): 18709 -> 18556
#   PR 20 (run memo replaces the interval-memoizing tier): 18556 -> 18121
#   PR 26 (one reviewed public surface): 18121 -> 17854
#   PR 27 (pipeline as stages): 17854 -> 17854
#   PR 28 (one machine value, no fidelity knob): 17854 -> 17692
#   PR 29 (one way to make each repro artifact): 17692 -> 17586
#   PR 31 (one machine, one memory path): 17586 -> 17530
#   presorted CART builder (perf): 17530 -> 17569
#   recycled machine storage (perf): 17569 -> 17686
#   store-hazard memo (perf): 17686 -> 17742
#   one sink per campaign: 17742 -> 17708
#   every figure is a campaign: 17708 -> 17707
#   forest fit and walk (perf): 17707 -> 17805
#   explore round (perf): 17805 -> 17885
#   a steer is a sink: 17885 -> 17876
#   one sampler: 17876 -> 17874
#   window ring, SQ ordinals, fetch slots (perf): 17874 -> 18023
#   one JSON writer, no rename queue: 18023 -> 18145
#   one parameter table, bounded machine parameters: 18145 -> 18140
#   one copy of every reported number, bounded campaign keys: 18140 -> 18153
#   one description of each mechanism, unparsable specs listed: 18155 -> 18090
set -eux

cd "$(dirname "$0")"

cargo build --release --offline --workspace
# One memory path: the pipeline has no memory-model type parameter, so
# its hot loop `drive_to` is compiled once. A second copy means a second
# instantiation crept back in.
DRIVE_TO=$(nm -C target/release/repro | grep -c 'Pipeline.*::drive_to$' || true)
if [ "$DRIVE_TO" -gt 1 ]; then
  echo "FAIL: $DRIVE_TO copies of Pipeline::drive_to in repro (want 1)" >&2
  exit 1
fi
# One sampler: a design point is drawn by the space (space.rs) for a
# `RunPlan` (engine.rs) and nowhere else, so sweeps, served jobs and
# Explorer rounds draw candidate k from one rule. Non-test, non-comment
# lines, cut at `#[cfg(test)]` as the size ledger cuts them.
SAMPLERS=$(find crates/*/src -name '*.rs' ! -path crates/core/src/space.rs \
  ! -path crates/core/src/engine.rs -print0 | xargs -0 awk \
  'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*\/\// && /sample_seeded/ {print FILENAME": "$0}')
if [ -n "$SAMPLERS" ]; then
  echo "FAIL: sample_seeded outside space.rs and engine.rs (ask a RunPlan):" >&2
  echo "$SAMPLERS" >&2
  exit 1
fi
# One parameter table: the 30 Table II/III features are described once,
# by `FEATURES` in config.rs, and names, feature vectors, grids and pin
# checks derive from it. Outside it no non-test code converts a feature
# vector by index (`f[N] as u32`) or declares a `[&str; 30]`.
TABLES=$(find crates/*/src -name '*.rs' ! -path crates/core/src/config.rs -print0 | xargs -0 awk \
  'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*\/\// && (/f\[[0-9]+\] as u32/ || /\[&str; 30\]/) {print FILENAME": "$0}')
if [ -n "$TABLES" ]; then
  echo "FAIL: a second description of the 30 features outside config.rs (derive from FEATURES):" >&2
  echo "$TABLES" >&2
  exit 1
fi
# One JSON writer: every artifact and wire body is built by
# `core::json`'s writer, whose numbers and strings always read back
# through `parse_json` (tests/json_readback.rs). Outside json.rs no
# non-test code formats JSON itself: none names the escaper or
# `json_num`, and no string literal holds a `\"key\":` pair.
JSON_SITES=$(find crates/*/src -name '*.rs' ! -path crates/core/src/json.rs -print0 | \
  xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1}
  !t && !/^[[:space:]]*\/\// && (/write_json_string|json_num/ || /\\"[^"\\]*\\":/) {print FILENAME": "$0}')
if [ -n "$JSON_SITES" ]; then
  echo "FAIL: JSON formatted outside crates/core/src/json.rs (use its writer):" >&2
  echo "$JSON_SITES" >&2
  exit 1
fi
# tests/public_api.rs pins every crate's public surface: on a change it
# prints the added/removed names and writes target/public_api.txt; after
# review, `cp target/public_api.txt tests/golden/public_api.txt`.
cargo test -q --offline --workspace
# A warm worker builds a machine with a pinned number of allocations and
# no zero-filled one (tests/machine_allocations.rs): release must read
# the same count as the debug run above.
cargo test -q --offline --release --test machine_allocations
# The op-class checks of isa's instruction constructors are `assert!`s,
# so their `#[should_panic]` tests hold in release too.
cargo test -q --offline --release -p armdse-isa
# The benchmark package sees the product only through public calls
# (benchmark/src/e2e/api.rs): an API change that breaks that view must
# fail here, not in the pipeline that runs the benchmark.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Every mltree test in the release profile the forest is timed in,
# including the large differential (#[ignore] in Tier-1 for its run
# time): the rank-sorted CART builder must fit `==` trees to the
# sort-per-node reference on 600-row x 30-feature tied integer datasets,
# alone and through 24 rounds of forest refits at 1 and 2 threads.
cargo test --release --offline -p armdse-mltree -- --include-ignored

# Style lanes: rustfmt and clippy are hard gates (both run offline).
cargo fmt --check
cargo clippy --all-targets --offline --workspace -- -D warnings

# Documentation lane: rustdoc must build clean (broken intra-doc links,
# missing docs on warn-gated crates, and bad code fences all fail).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Checkpoint/resume smoke: pause a small dataset campaign after its
# first chunk (--max-chunks 1 leaves dataset.ckpt behind), leave what a
# crash leaves past the checkpoint (a complete row and a torn half-row),
# resume it at a different thread count, and require the finished CSV
# byte-identical to an uninterrupted run — the engine's determinism
# contract end to end through the repro binary.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
cargo run --release --offline -p armdse-analysis --bin repro -- dataset \
  --configs 40 --scale tiny --seed 7 --threads 4 --out "$SMOKE/fresh"
cargo run --release --offline -p armdse-analysis --bin repro -- dataset \
  --configs 40 --scale tiny --seed 7 --threads 4 --out "$SMOKE/paused" --max-chunks 1
test -f "$SMOKE/paused/dataset.ckpt"
LAST_ROW=$(tail -n 1 "$SMOKE/fresh/dataset.csv")
printf '%s\n%s' "$LAST_ROW" "$(printf '%s' "$LAST_ROW" | cut -c1-40)" \
  >> "$SMOKE/paused/dataset.csv"
cargo run --release --offline -p armdse-analysis --bin repro -- dataset \
  --configs 40 --scale tiny --seed 7 --threads 1 --out "$SMOKE/paused" --resume
test ! -f "$SMOKE/paused/dataset.ckpt"
cmp "$SMOKE/fresh/dataset.csv" "$SMOKE/paused/dataset.csv"

# Observability smoke: the same campaign with --metrics must stream one
# counter row per job (docs/METRICS.md schema), emit the bottleneck
# cross-tab, and leave the dataset bytes untouched (metrics
# transparency, checked against the fresh run above).
cargo run --release --offline -p armdse-analysis --bin repro -- dataset \
  --configs 40 --scale tiny --seed 7 --threads 4 --out "$SMOKE/observed" \
  --metrics "$SMOKE/observed/metrics"
cmp "$SMOKE/fresh/dataset.csv" "$SMOKE/observed/dataset.csv"
test -f "$SMOKE/observed/metrics/metrics.csv"
test -f "$SMOKE/observed/metrics/bottleneck.txt"
# The metrics file resumes through the same sink as the dataset: pause
# the metrics campaign after its first chunk, leave a complete metrics
# row and a torn half-row past the checkpoint, resume at one thread, and
# require both files byte-identical to the uninterrupted run.
cargo run --release --offline -p armdse-analysis --bin repro -- dataset \
  --configs 40 --scale tiny --seed 7 --threads 4 --out "$SMOKE/obspaused" \
  --metrics "$SMOKE/obspaused/metrics" --max-chunks 1
test -f "$SMOKE/obspaused/dataset.ckpt"
LAST_ROW=$(tail -n 1 "$SMOKE/observed/metrics/metrics.csv")
printf '%s\n%s' "$LAST_ROW" "$(printf '%s' "$LAST_ROW" | cut -c1-40)" \
  >> "$SMOKE/obspaused/metrics/metrics.csv"
cargo run --release --offline -p armdse-analysis --bin repro -- dataset \
  --configs 40 --scale tiny --seed 7 --threads 1 --out "$SMOKE/obspaused" \
  --metrics "$SMOKE/obspaused/metrics" --resume
test ! -f "$SMOKE/obspaused/dataset.ckpt"
cmp "$SMOKE/observed/dataset.csv" "$SMOKE/obspaused/dataset.csv"
cmp "$SMOKE/observed/metrics/metrics.csv" "$SMOKE/obspaused/metrics/metrics.csv"

# Explore-smoke lane: a tiny-budget surrogate-guided campaign through
# the repro binary. Pause it mid-campaign (--max-chunks), leave what a
# crash leaves past the checkpoint (in both the curve and the dataset, a
# row and a torn half-row — the dataset lane's trick), resume at a different
# thread count, and require every exploration artifact byte-identical
# to the uninterrupted run — the Explorer's checkpoint determinism
# contract end to end. The checkpoint carries exactly the four explore.*
# keys, the curve artifact the documented schema header, and Pareto
# mode must emit its frontier — the same one at 4 threads and at 1,
# because the threads also fit the forest and walk the pool through it
# and the Pareto objective reads those predictions.
cargo run --release --offline -p armdse-analysis --bin repro -- explore \
  --configs 60 --explore 12 --scale tiny --seed 7 --threads 4 --out "$SMOKE/exfresh"
head -n 1 "$SMOKE/exfresh/explore_curve.csv" | \
  grep -q '^round,samples,epsilon,r2,mae,model_hash$'
cargo run --release --offline -p armdse-analysis --bin repro -- explore \
  --configs 60 --explore 12 --scale tiny --seed 7 --threads 4 \
  --out "$SMOKE/expaused" --max-chunks 3
test -f "$SMOKE/expaused/explore.ckpt"
test "$(grep -c '^explore\.' "$SMOKE/exfresh/explore.ckpt")" = 4
LAST_ROW=$(tail -n 1 "$SMOKE/exfresh/explore_curve.csv")
printf '%s\n%s' "$LAST_ROW" "$(printf '%s' "$LAST_ROW" | cut -c1-20)" \
  >> "$SMOKE/expaused/explore_curve.csv"
LAST_ROW=$(tail -n 1 "$SMOKE/exfresh/explore_dataset.csv")
printf '%s\n%s' "$LAST_ROW" "$(printf '%s' "$LAST_ROW" | cut -c1-40)" \
  >> "$SMOKE/expaused/explore_dataset.csv"
cargo run --release --offline -p armdse-analysis --bin repro -- explore \
  --configs 60 --explore 12 --scale tiny --seed 7 --threads 1 \
  --out "$SMOKE/expaused" --resume
cmp "$SMOKE/exfresh/explore_dataset.csv" "$SMOKE/expaused/explore_dataset.csv"
cmp "$SMOKE/exfresh/explore_curve.csv" "$SMOKE/expaused/explore_curve.csv"
cmp "$SMOKE/exfresh/explore_curve.json" "$SMOKE/expaused/explore_curve.json"
cargo run --release --offline -p armdse-analysis --bin repro -- explore \
  --configs 60 --explore 12 --scale tiny --seed 7 --threads 4 \
  --out "$SMOKE/expareto" --explore-pareto
test -f "$SMOKE/expareto/explore_pareto.csv"
cargo run --release --offline -p armdse-analysis --bin repro -- explore \
  --configs 60 --explore 12 --scale tiny --seed 7 --threads 1 \
  --out "$SMOKE/expareto1" --explore-pareto
cmp "$SMOKE/expareto/explore_pareto.csv" "$SMOKE/expareto1/explore_pareto.csv"
cmp "$SMOKE/expareto/explore_dataset.csv" "$SMOKE/expareto1/explore_dataset.csv"
cmp "$SMOKE/expareto/explore_curve.csv" "$SMOKE/expareto1/explore_curve.csv"
# The same identity at Small depth: 400 candidates grow deeper trees
# than the Tiny smoke's 60, and the campaign's workers serve six rounds.
cargo run --release --offline -p armdse-analysis --bin repro -- explore \
  --configs 400 --explore 100 --scale small --seed 7 --threads 1 --out "$SMOKE/exsmall1"
cargo run --release --offline -p armdse-analysis --bin repro -- explore \
  --configs 400 --explore 100 --scale small --seed 7 --threads 2 --out "$SMOKE/exsmall2"
for f in explore_dataset.csv explore_curve.csv explore_curve.json; do
  cmp "$SMOKE/exsmall1/$f" "$SMOKE/exsmall2/$f"
done

# Multicore-smoke lane: a tiny 2-core campaign over the extended
# kernels through the repro binary (docs/MULTICORE.md). The artifacts
# must be byte-identical at 1 vs 8 worker threads (the slice loop is
# deterministic; one job runs one whole machine on one thread) and the
# metrics CSV must carry per-core detail rows.
cargo run --release --offline -p armdse-analysis --bin repro -- dataset \
  --configs 12 --scale tiny --seed 7 --threads 8 --apps extended \
  --cores 2 --banks 4 --out "$SMOKE/mc8" --metrics "$SMOKE/mc8/metrics"
cargo run --release --offline -p armdse-analysis --bin repro -- dataset \
  --configs 12 --scale tiny --seed 7 --threads 1 --apps extended \
  --cores 2 --banks 4 --out "$SMOKE/mc1" --metrics "$SMOKE/mc1/metrics"
cmp "$SMOKE/mc8/dataset.csv" "$SMOKE/mc1/dataset.csv"
cmp "$SMOKE/mc8/metrics/metrics.csv" "$SMOKE/mc1/metrics/metrics.csv"
# Per-core detail rows exist: the core column (4th) carries index 1
# somewhere in the stream on a 2-core machine.
grep -q '^[0-9]*,[0-9]*,[^,]*,1,' "$SMOKE/mc8/metrics/metrics.csv"
# The contention experiment is one table measured on the machine
# (rows = cores); the deleted closed-form projection must not reappear.
cargo run --release --offline -p armdse-analysis --bin repro -- multicore \
  --scale tiny --out "$SMOKE/mcx"
grep -q '^ *Cores ' "$SMOKE/mcx/multicore.txt"
if grep -q 'Projected' "$SMOKE/mcx/multicore.txt"; then
  echo 'FAIL: repro multicore must only report the measured machine' >&2
  exit 1
fi

# One-protocol lane: `repro all` is the list of its experiments, so an
# experiment run on its own over the same dataset writes the bytes `all`
# wrote. Each standalone run gets a directory holding a copy of all's
# dataset.csv; every file it writes is compared with all's file of the
# same name (`dataset` regenerates the CSV, so that is compared too; the
# summary is the one file `all` does not write, and `explore` writes
# nothing `all` does). Every experiment is a campaign on `--threads`:
# `all` runs on 2 threads and each standalone run on 1, so the lane also
# pins every figure's bytes across thread counts.
ONE="--configs 40 --scale tiny --sweep-configs 2"
./target/release/repro all $ONE --threads 2 --out "$SMOKE/all" --metrics "$SMOKE/all/metrics"
test -f "$SMOKE/all/metrics/bottleneck.txt"
for E in fig1 table1 dataset summary fig2 fig3 fig4 fig5 fig6 fig7 fig8 \
    headline unseen multicore crossval; do
  mkdir -p "$SMOKE/one/$E"
  cp "$SMOKE/all/dataset.csv" "$SMOKE/one/$E/"
  ./target/release/repro "$E" $ONE --threads 1 --out "$SMOKE/one/$E" > /dev/null
  for F in "$SMOKE/one/$E"/*; do
    N=$(basename "$F")
    test "$N" = dataset_summary.txt || cmp "$F" "$SMOKE/all/$N"
  done
done

# Paper lane: EXPERIMENTS.md's command (`all`, then `summary` over the
# same dataset) must write every committed results/*.txt byte for byte,
# and commit every .txt it writes; tests/docs_cite_declared_metrics.rs
# holds EXPERIMENTS.md to those files. A change that moves a reported
# number fails here until results/ and EXPERIMENTS.md are regenerated
# with it. About 4 minutes on 2 vCPUs.
PAPER="--configs 8000 --scale standard"
./target/release/repro all $PAPER --sweep-configs 10 --out "$SMOKE/paper" > /dev/null
./target/release/repro summary $PAPER --out "$SMOKE/paper"
for F in "$SMOKE/paper"/*.txt; do
  cmp "$F" "results/$(basename "$F")"
done
test "$(ls results/*.txt | wc -l)" = "$(ls "$SMOKE/paper"/*.txt | wc -l)"

# Docs link-check: every relative markdown link target in README.md,
# DESIGN.md, EXPERIMENTS.md and docs/*.md must exist on disk (external
# http(s) links are skipped), and every in-page `](#anchor)` must be the
# GitHub slug of one of the document's headings (lowercased, all but
# letters, digits, spaces, `_` and `-` dropped, spaces to `-`).
for doc in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
  dir=$(dirname "$doc")
  grep -o ']([^)]*)' "$doc" | sed 's/^](//; s/)$//; s/#.*$//' | \
    grep -v '^https\?://' | grep -v '^$' | sort -u | while read -r target; do
    test -e "$dir/$target" || {
      echo "FAIL: $doc links to missing file: $target" >&2
      exit 1
    }
  done
  SLUGS=$(grep '^#' "$doc" | sed 's/^#* *//' | tr 'A-Z' 'a-z' | \
    LC_ALL=C sed 's/[^a-z0-9 _-]//g; s/ /-/g')
  grep -o '](#[^)]*)' "$doc" | sed 's/^](#//; s/)$//' | sort -u | \
    while read -r anchor; do
    printf '%s\n' "$SLUGS" | grep -qxF "$anchor" || {
      echo "FAIL: $doc links to missing anchor: #$anchor" >&2
      exit 1
    }
  done
done

# Invariant lane: rebuild the simulator with cycle-level structural
# checks compiled in and rerun the crates they gate. Any violation
# panics. (Scoped to these crates: the full integration suite re-runs
# dataset-scale simulations and is too slow with per-cycle asserts.)
cargo test -q --offline --features check-invariants \
  -p armdse-memsim -p armdse-simcore -p armdse-oracle

# Differential-fuzz smoke: fixed campaign seed (0xA5C3_2024 baked into
# FuzzConfig::default), 200 random KIR programs cross-checked between
# the reference interpreter and the OoO core with invariants enabled;
# each program's metrics run is repeated stepping every cycle
# (simcore::set_fast_forward), and the two must be equal.
# Deterministic: same seed, same programs, same verdict on every run.
cargo test -q --offline --features check-invariants \
  --test differential_fuzz

# Benchmark-count lane: the one benchmark system's gate that fails
# (DESIGN.md §11). A traced smoke run of each workload repeats its
# simulated and exact readings bit for bit per seed on any host; the
# lane tabulates them (row = reading, column = workload) and compares
# the table byte for byte with the committed one. Host time is gated by
# the pipeline's parent-vs-change runs, not here. After an intended
# behaviour change let the lane fail, then review the diff of
#   cp target/benchmark_counts.txt tests/golden/benchmark_counts.txt
COUNTS='simcore\.(sim_instr|sim_cycles|discarded|reuse\.(cold_hits|hits|misses|evictions))|memsim\.[a-z0-9_]*|kernels\.workload_(builds|hits)|core\.(dataset\.csv_bytes|engine\.checkpoints|surrogate\.acc_pct|explorer\.(rounds|holdout_r2)|jobstore\.jobs)|mltree\.predictions|server\.http_errors'
WORKLOADS='paper_grid mc2_sweep reuse_sweep explore_campaign served_jobs'
for W in $WORKLOADS; do
  # Last stdout line = result JSON -> "reading value" lines, pivoted below.
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --bin armdse-benchmark -- --workload "$W" --seed 2024 --smoke --trace 1 | \
    tail -n 1 | tr '}' '\n' | \
    sed -n 's/^.*"\([A-Za-z0-9_.]*\)": {"value": \([^,]*\),.*$/\1 \2/p' | \
    grep -E "^($COUNTS) "
done | awk -v head="reading $WORKLOADS" 'BEGIN { print head }
  !($1 in v) { k[++n] = $1 } { v[$1] = v[$1] " " $2 }
  END { for (i = 1; i <= n; i++) print k[i] v[k[i]] }' > target/benchmark_counts.txt
diff -u tests/golden/benchmark_counts.txt target/benchmark_counts.txt

# Server-smoke lane: DSE-as-a-service end to end (docs/SERVER.md). A
# plan submitted over HTTP must stream back exactly the bytes the
# direct `repro dataset` run above wrote — same configs/scale/seed, so
# the streamed CSV is cmp-identical to "$SMOKE/fresh/dataset.csv". The
# lane also submits a spec whose pin value no design point survives
# (refused, and the runners live on to serve everything after it),
# round-trips pause -> resume -> cancel on a long job (a pending cancel
# cannot be resumed away) and shuts the server down cleanly (the
# background repro must exit 0).
cargo run --release --offline -p armdse-analysis --bin repro -- \
  --serve 127.0.0.1:0 --out "$SMOKE/server" --runners 2 \
  2> "$SMOKE/server.log" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  test -s "$SMOKE/server/server.addr" && break
  sleep 0.1
done
ADDR=$(cat "$SMOKE/server/server.addr")
aclient() { cargo run --release --offline -p armdse-server --bin armdse-client -- "$@"; }
printf '{"configs": 40, "scale": "tiny", "seed": 7, "threads": 4}' \
  > "$SMOKE/server/spec.json"
JOB=$(aclient "$ADDR" submit "$SMOKE/server/spec.json")
aclient "$ADDR" wait "$JOB" | grep -q '"state": "done"'
aclient "$ADDR" rows "$JOB" "$SMOKE/server/rows.csv"
cmp "$SMOKE/fresh/dataset.csv" "$SMOKE/server/rows.csv"
printf '{"configs": 2, "scale": "tiny", "apps": ["STREAM"], "pins": {"ROB-Size": 0}}' \
  > "$SMOKE/server/badpin.json"
if aclient "$ADDR" submit "$SMOKE/server/badpin.json"; then
  echo 'FAIL: an out-of-range pin value must be refused at submission' >&2
  exit 1
fi
# pause -> resume -> cancel round-trip on a long single-app campaign
# (600 one-job chunks: cancel always lands mid-flight).
printf '{"configs": 600, "apps": ["STREAM"], "scale": "tiny", "seed": 11, "threads": 2, "chunk_jobs": 1}' \
  > "$SMOKE/server/spec2.json"
JOB2=$(aclient "$ADDR" submit "$SMOKE/server/spec2.json")
aclient "$ADDR" pause "$JOB2"
aclient "$ADDR" resume "$JOB2"
aclient "$ADDR" cancel "$JOB2"
if aclient "$ADDR" resume "$JOB2"; then
  echo 'FAIL: resume must not rescind a cancel (pending or honoured)' >&2
  exit 1
fi
aclient "$ADDR" wait "$JOB2" | grep -q '"state": "cancelled"'
aclient "$ADDR" stats | grep -q '"schema": "armdse-server-stats-v1"'
aclient "$ADDR" shutdown
wait "$SERVER_PID"
grep -q 'server shut down' "$SMOKE/server.log"
