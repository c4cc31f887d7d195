# Development shortcuts. `just smoke` is the CI gate — run it before
# pushing; it must pass with zero warnings.

# Build, test, and lint (clippy and rustdoc, warnings denied) exactly
# as CI does, then run every program
# under examples/ (~10 s together; clippy only compiles them), so the
# README's quickstart cannot rot, and run CI's release-mode reference
# suites: the aligner kernels (and, by name, every read of the
# `wgs_hc`-shaped world against the parent's seeding and kernels,
# `the_wgs_hc_world_aligns_as_under_the_parents_seeding_and_kernels`,
# which a debug run skips), the recalibration passes and
# HaplotypeCaller, the codec's decoder, the BAM writer and the SAM text
# formatter and parser held to the parent's code and its Lz parse to
# count gates, the stage outputs to their pinned digests, the map-only
# round 2 to the records of the shuffled reference round
# (`rounds::reference`), every DUPLICATE bit round 3 moves over the
# two rounds' partitions to a recomputed quality-sum tie group, every
# sim report of the `experiments` binary to rendering, and the
# standard-scale real run to the integers EXPERIMENTS.md quotes
# (`real_integers_are_pinned_at_standard_scale`; the tier-1 run pins the
# same integers on four tiny worlds in
# `real_integers_are_pinned_for_one_to_eight_partitions`). Release
# matters: with overflow checks off a kernel can disagree with its
# reference where the debug run never reaches. The line counter is held to its
# fixtures first, the aligner to no process-global counter, the DFS
# source and the engine's wave scheduler to no wall clock, sleep or
# spawned thread, the whole engine and the job service to no sleep,
# timed wait or Duration (service time, slowdowns and backoff are
# charged to a ledger; idle workers park untimed; the service's tests
# wait on state), the streaming harness, the wrapped programs, round 1
# and the job service's admission and scheduling files to no spawned
# thread (the scheduling pass runs on the thread whose event changed
# the schedule) and the first three to no channel, every crate to no
# file over 700
# non-test lines, and the workspace build to exactly two
# external packages, proptest and rand, as in CI.
smoke:
    test "$(scripts/loc.sh scripts/fixtures/loc_fixture.rs)" = 32
    test "$(scripts/loc.sh $(find scripts/fixtures/loc_test_module -name '*.rs'))" = 12
    scripts/no-global-counters.sh
    scripts/no-wall-clock.sh
    scripts/no-spawned-thread.sh
    scripts/max-file-lines.sh
    scripts/external-deps.sh --offline
    cargo build --release --offline --workspace
    cargo test -q --offline --workspace
    cargo clippy --offline --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --keep-going
    for ex in quickstart variant_calling error_diagnosis telemetry cluster_tuning; do cargo run --release --offline -q --example "$ex" > /dev/null || exit 1; done
    cargo test --release --offline -q -p gesall-aligner
    scripts/test-some.sh --release --offline -q -p gesall-aligner --lib engine::tests::the_wgs_hc_world_aligns_as_under_the_parents_seeding_and_kernels -- --exact
    cargo test --release --offline -q -p gesall-tools
    cargo test --release --offline -q -p gesall-formats
    scripts/test-some.sh --release --offline -q -p gesall-formats --lib compress::tests::the_parse_cuts_fewer_tokens_and_probes_less_than_the_reference -- --exact
    scripts/test-some.sh --release --offline -q -p gesall-formats --test proptest_formats sam_text_formats_and_parses_as_the_parent -- --exact
    cargo test --release --offline -q -p gesall-core
    cargo run --release --offline -q -p gesall-bench --bin experiments -- sim > /dev/null
    scripts/test-some.sh --release --offline -q -p gesall-bench --lib real_experiments::tests::real_integers_are_pinned_at_standard_scale -- --ignored --exact

# The benchmark of record (benchmark/README.md): all four workloads,
# untraced, each in its own process; every end-to-end metric and the
# output digests land in benchmark/out/results.json. Exits nonzero if
# any workload reports `correct: false`.
bench:
    benchmark/run.sh run

# One traced run per workload: the per-layer ledger (phases, kernels,
# codecs, DFS, jobsvc) plus a Chrome trace per workload in benchmark/out/.
bench-trace:
    benchmark/run.sh trace

# Apply BENCHMARK.json's bounds to two result sets (A = before, B =
# after); exits 1 on a regression.
bench-diff A B:
    benchmark/run.sh compare {{A}} {{B}}

# Alternating parent / change pairs of one workload, the procedure a
# performance claim is judged by (scripts/bench-pairs.sh): seeds 1..N,
# each side first in turn, untraced; prints every pair, then per
# end-to-end metric the medians, ratio, wins and the parent's quartiles.
# Exits 1 on correct:false. PARENT and CHANGE are copies of each side's
# benchmark/target/release/gesall-benchmark.
bench-pairs PARENT CHANGE WORKLOAD N="10" SECONDS="20":
    scripts/bench-pairs.sh {{PARENT}} {{CHANGE}} {{WORKLOAD}} {{N}} {{SECONDS}}

# CI's deflake gate: the timing-sensitive tests N times each. Every
# line goes through scripts/test-some.sh, which fails when its filter
# matches no test — a moved or renamed test cannot turn its gate off.
deflake N="25":
    #!/usr/bin/env bash
    set -euo pipefail
    for i in $(seq {{N}}); do
        scripts/test-some.sh --offline -q -p gesall-mapreduce --test gray_failures
        scripts/test-some.sh --offline -q -p gesall-mapreduce --lib wave::tests::locality_preference_honored_when_slots_free -- --exact
        scripts/test-some.sh --offline -q -p gesall-mapreduce --test fault_tolerance a_tasks_output_is_what_its_committed_attempts_writer_finished_with -- --exact
        scripts/test-some.sh --offline -q -p gesall-mapreduce --test fault_tolerance speculative_backup_beats_slowed_original -- --exact
        scripts/test-some.sh --offline -q -p gesall-mapreduce --test fault_tolerance a_death_another_job_fires_reruns_this_jobs_lost_maps_before_its_reduce_wave -- --exact
        scripts/test-some.sh --offline -q -p gesall-mapreduce --test fault_tolerance a_reducer_that_finds_its_input_died_with_a_node_reruns_the_lost_map -- --exact
        scripts/test-some.sh --offline -q -p gesall-core --lib pipeline::tests::faulted_reduce_attempts_commit_one_writers_bytes_per_partition -- --exact
        scripts/test-some.sh --offline -q -p gesall-dfs --lib fs::tests::racing_writers_of_one_path_commit_exactly_one_copy -- --exact
        scripts/test-some.sh --offline -q -p gesall-dfs --lib retention::tests::racing_cas_puts_of_one_key_store_it_once -- --exact
        scripts/test-some.sh --offline -q -p gesall-core --test platform racing_runs_of_one_stage_key_commit_one_whole_entry -- --exact
        scripts/test-some.sh --offline -q -p gesall-dfs --lib retention::tests::a_pin_that_returned_ok_keeps_its_file_until_unpin -- --exact
        scripts/test-some.sh --offline -q -p gesall-jobsvc --lib service::dispatch::tests::elastic_borrow_then_reclaim_for_late_tenant -- --exact
        scripts/test-some.sh --offline -q -p gesall-jobsvc --lib service::dispatch::tests::the_permit_drop_that_frees_a_starved_tenants_slot_dispatches_its_job -- --exact
        scripts/test-some.sh --offline -q -p gesall --test multi_tenant
    done

# Fast inner-loop check.
check:
    cargo check --offline --workspace --all-targets

# Full test run with output on failure.
test:
    cargo test --offline --workspace

# Lint only.
lint:
    cargo clippy --offline --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --keep-going

# Format (requires rustfmt).
fmt:
    cargo fmt --all

# Non-test Rust lines per crate, the ten largest files under
# crates/*/src (ROADMAP's "files left to split" list is read off it) and
# the public field count of every `*Config` struct — the numbers a
# simplification PR quotes before/after. Every line counts except those
# of a `#[cfg(test)]` item and of a file its parent declares
# `#[cfg(test)] mod NAME;`; scripts/loc.sh states the rules, and CI holds
# them to the fixtures under scripts/fixtures/.
loc:
    scripts/loc.sh
