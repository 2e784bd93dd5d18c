//! PR 10 estimate-snapshot overhead gate: what streaming uncertainty
//! quantification adds to a unit barrier, measured the same way the
//! PR 7 series/status gate measures its sidecars.
//!
//! Racing two full instrumented runs cannot resolve a 2% bound on a
//! throttled shared runner (see `series.rs` for the full argument), so
//! the group times the *denominator* and the *added work* separately:
//!
//! - `unit` — one bare scaled chip run (`campaign::run_units`, one
//!   worker, registry-only observer): what a `(block_bits, scheme)`
//!   unit costs before any estimate work.
//! - `per_unit_overhead` — exactly the recurring work PR 10 adds at a
//!   unit barrier: folding the finished unit's per-page lifetimes and
//!   fault counts into [`Moments`] accumulators (`unit_estimates`),
//!   serializing the estimate snapshot into the series sidecar
//!   (`advance_with` with estimates, against plain `advance` this is
//!   the marginal cost), and upserting the `mean ± CI` lines into the
//!   status heartbeat (`set_estimates`).
//!
//! The gate requires `per_unit_overhead` at most 2% of `unit` (sample
//! minima, the stable statistic under additive throttling noise). The
//! expected margin is large: the moment fold is two u128
//! multiply-accumulates per page over pages the simulation spent ~3 ms
//! each evaluating. End-to-end fixed costs ride on the same wall-clock
//! record the PR 7 gate uses: `scripts/bench_pr10.sh` times a bare and
//! an estimate-instrumented (`--series --status`) `fig5 --full` back to
//! back and splices both into `fig5_full_wall_clock` (pre = bare plus
//! the tolerated 2%; without a same-session bare measurement the pre
//! field falls back to the PR 5 recording).
//!
//! Output goes to `results/bench/BENCH_pr10.json`, checked by the
//! `bench-gate` binary alongside the PR 3/4/5/7/9 documents.

use aegis_core::{AegisPolicy, Rectangle};
use aegis_experiments::campaign::{run_units, Timelines};
use aegis_experiments::checkpoint::UnitSpec;
use aegis_experiments::runner::{unit_estimates, RunObserver, RunOptions};
use aegis_experiments::schemes::Policy;
use sim_rng::bench::{Bench, Record};
use sim_rng::bench_group;
use sim_telemetry::{Registry, SeriesWriter, SharedBuf, StatusWriter};
use std::hint::black_box;

/// `experiments fig5 --full` wall clock recorded (bare, untraced) when
/// the PR 5 observability record landed — the fallback pre-change bar
/// when the bench runs without a same-session bare measurement.
const FIG5_FULL_PR5_SECONDS: f64 = 94.138;

/// Tolerated end-to-end slowdown of an estimate-instrumented (`--series
/// --status`) fig5 `--full` run versus the bare wall clock.
const WALL_CLOCK_TOLERANCE: f64 = 1.02;

fn policy() -> Policy {
    Box::new(AegisPolicy::new(
        Rectangle::new(9, 61, 512).expect("paper formation"),
    ))
}

/// Same scaled unit as the PR 7 gate: 64 pages keeps one unit ~200 ms,
/// conservative against production units (2048 pages amortize the same
/// barrier work 32× further), pinned to one worker so the caller-thread
/// instrumentation under test is measured scheduler-quiet.
fn options() -> RunOptions {
    RunOptions {
        pages: 64,
        seed: 0x7A5E,
        threads: Some(1),
        ..RunOptions::default()
    }
}

fn bench_estimate_overhead(c: &mut Bench) {
    let mut group = c.benchmark_group("estimate_overhead_512_9x61");
    group.sample_size(20);
    let opts = options();
    let specs = UnitSpec::sweep(opts.sim_config(512), vec![policy()]);
    let pages = opts.pages as u64;

    // Denominator: the bare unit, registry-only observer.
    let registry = Registry::new();
    group.bench_function("unit", |b| {
        b.iter(|| {
            let observer = RunObserver::with_registry(&registry);
            let _ = black_box(run_units(
                &specs,
                0..opts.pages,
                &observer,
                Timelines::PerUnit,
                None,
            ));
        });
    });

    // One finished unit to fold estimates from — the same per-page
    // result vectors every real barrier snapshot reads.
    let observer = RunObserver::with_registry(&registry);
    let run = run_units(&specs, 0..opts.pages, &observer, Timelines::PerUnit, None)
        .expect("no checkpoint, no I/O")
        .expect("no checkpoint, no stop")
        .remove(0)
        .run;

    // Numerator: the recurring estimate work a `--series --status` run
    // adds at each unit barrier on top of the PR 7 sidecar costs.
    // Writer setup/teardown stays outside the loop (per-run costs,
    // billed by the wall-clock record).
    let status_dir =
        std::env::temp_dir().join(format!("aegis-bench-estimates-{}", std::process::id()));
    let status = StatusWriter::create("bench", &status_dir).expect("status writer in temp dir");
    status.set_total_pages(pages);
    status.set_target_rse(0.05);
    let series =
        SeriesWriter::with_buffer("bench", SharedBuf::default(), 0).expect("in-memory series");
    group.bench_function("per_unit_overhead", |b| {
        b.iter(|| {
            let estimates = unit_estimates("Aegis 9x61", 512, &run);
            let sampled = series
                .advance_with(&registry, pages, &estimates)
                .expect("series advance");
            status.set_estimates(&estimates);
            status.complete_unit(pages);
            black_box(sampled);
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&status_dir);
}

bench_group!(benches, bench_estimate_overhead);

/// Median of one leg of the overhead group.
fn leg_median(records: &[Record], name: &str) -> f64 {
    records
        .iter()
        .find(|r| r.group == "estimate_overhead_512_9x61" && r.name == name)
        .map(|r| r.median_ns)
        .expect("overhead leg present in bench records")
}

/// Splices the overhead summary and the end-to-end fig5 `--full`
/// wall-clock record into the bench JSON, mirroring the PR 7 record
/// (`SIM_FIG5_BARE_SECONDS` / `SIM_FIG5_FULL_SECONDS`).
fn with_pr10_records(json: &str, records: &[Record]) -> String {
    let unit = leg_median(records, "unit");
    let overhead = leg_median(records, "per_unit_overhead");
    assert!(unit > 0.0, "unit leg measured a zero median");

    let env_seconds = |name: &str| std::env::var(name).ok().and_then(|s| s.parse::<f64>().ok());
    let bare = env_seconds("SIM_FIG5_BARE_SECONDS").unwrap_or(FIG5_FULL_PR5_SECONDS);
    let post = env_seconds("SIM_FIG5_FULL_SECONDS");
    let body = json
        .trim_end()
        .strip_suffix('}')
        .expect("bench JSON document ends with an object")
        .trim_end()
        .to_string();
    let post_field = match post {
        Some(s) => format!("\"post_change_s\": {s:.3}"),
        None => "\"post_change_s\": null".to_string(),
    };
    let pre = bare * WALL_CLOCK_TOLERANCE;
    format!(
        "{body},\n  \
         \"estimate_overhead\": {{\"per_unit_overhead_fraction\": {:.6}}},\n  \
         \"fig5_full_wall_clock\": {{\"pre_change_s\": {pre:.3}, {post_field}}}\n}}\n",
        overhead / unit,
    )
}

fn main() {
    let mut bench = Bench::new();
    benches(&mut bench);
    let json = with_pr10_records(&bench.to_json("BENCH_pr10"), bench.records());
    let dir = match std::env::var_os("SIM_BENCH_OUT") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            // Mirror `Bench::write_json`: results/bench/ at the workspace
            // root (nearest ancestor with a Cargo.lock).
            let mut dir = std::env::current_dir().expect("cwd");
            while !dir.join("Cargo.lock").exists() {
                assert!(dir.pop(), "no workspace root found above the bench");
            }
            dir.join("results").join("bench")
        }
    };
    std::fs::create_dir_all(&dir).expect("create bench output dir");
    let path = dir.join("BENCH_pr10.json");
    std::fs::write(&path, json).expect("write BENCH_pr10.json");
    println!("bench results written to {}", path.display());
}
