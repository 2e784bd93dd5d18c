//! Self-tests of the benchmark's traced run: the delegate must not change
//! a single decision, the manifest must list exactly the metrics the
//! tracer prints, and the output checks must catch what they guard.

use aegis_experiments::schemes::{self, Policy};
use pcm_sim::montecarlo::{self, MemoryRun, SimConfig};
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::timeline::{TimelineCache, TimelineSampler, DEFAULT_WEAK_SUCCESS_Q8};
use perfbench_trace::{
    check_closed_form, check_uncapped, per_layer_metrics, policy_totals, Family, TimedPolicy,
};
use sim_telemetry::json::Json;
use std::sync::Arc;

/// Order-sensitive FNV-1a digest of a run's per-page results, bit-exact
/// on the floating-point death times.
fn run_digest(run: &MemoryRun) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for t in &run.page_lifetimes {
        eat(t.to_bits());
    }
    for t in &run.unprotected_lifetimes {
        eat(t.to_bits());
    }
    for &f in &run.faults_recovered {
        eat(f as u64);
    }
    eat(run.capped_pages as u64);
    h
}

fn small_chip(block_bits: usize, partial_fraction: f64) -> SimConfig {
    SimConfig {
        threads: Some(2),
        partial_fraction,
        ..SimConfig::scaled(3, block_bits, 11)
    }
}

#[test]
fn delegate_decides_like_the_wrapped_policy_for_every_family() {
    let cases: [(fn() -> Policy, Family); 6] = [
        (|| schemes::ecp(6, 512), Family::Ecp),
        (|| schemes::rdis3(512), Family::Rdis),
        (|| schemes::safer(6, 512, false), Family::Safer),
        (|| schemes::aegis(17, 31, 512), Family::Aegis),
        (|| schemes::masking(4, 512), Family::Masking),
        (|| schemes::plbc(4, 2, 512), Family::Plbc),
    ];
    for partial in [0.0, 0.25] {
        let cfg = small_chip(512, partial);
        for (make, family) in cases {
            let plain = montecarlo::run_memory(make().as_ref(), &cfg);
            let timed = TimedPolicy::new(make());
            assert_eq!(timed.family(), family, "{}", timed.name());
            let before = policy_totals();
            let traced = montecarlo::run_memory(&timed, &cfg);
            let calls = policy_totals().since(&before).decisions(family);
            assert_eq!(plain, traced, "{} at partial {partial}", timed.name());
            assert_eq!(run_digest(&plain), run_digest(&traced));
            assert!(calls > 0, "{}: no timed decisions", timed.name());
        }
    }
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries(manifest: &Json, key: &str) -> Vec<(String, String, String)> {
    let Some(Json::Arr(items)) = manifest.get(key) else {
        panic!("BENCHMARK.json lacks an array '{key}'");
    };
    items
        .iter()
        .map(|item| {
            let field = |k: &str| item.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn manifest_lists_exactly_the_traced_metrics_with_units() {
    let manifest = manifest();
    let listed = entries(&manifest, "per_layer");
    let printed: Vec<(String, String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_owned(), b.to_owned()))
        .collect();
    assert_eq!(listed, printed);
    for (name, unit, _) in listed.iter().chain(&entries(&manifest, "end_to_end")) {
        assert!(is_name(name), "bad metric name '{name}'");
        assert!(!unit.is_empty(), "{name} has no unit");
    }
}

#[test]
fn a_nonzero_capped_page_count_fails_its_unit() {
    assert!(check_uncapped("ECP6#512", 0).is_ok());
    let err = check_uncapped("ECP6#512", 1).unwrap_err();
    assert!(err.contains("ECP6#512"), "{err}");
}

#[test]
fn closed_form_check_accepts_the_engine_and_catches_a_tampered_page() {
    let cfg = small_chip(512, 0.0);
    let sampler = TimelineSampler::paper_default(cfg.block_bits)
        .with_partial_mix(cfg.partial_fraction, DEFAULT_WEAK_SUCCESS_Q8);
    let cache = TimelineCache::new();
    let pages: Vec<Arc<_>> = (0..cfg.pages)
        .map(|i| cache.get_or_sample(&sampler, cfg.seed, i as u64, cfg.blocks_per_page()))
        .collect();
    for n in [4, 5, 6] {
        let run: MemoryRun = montecarlo::run_memory(schemes::ecp(n, 512).as_ref(), &cfg);
        check_closed_form("ECP", n, &run, &pages).expect("engine matches the closed form");
        let mut tampered = run.clone();
        tampered.faults_recovered[1] += 1;
        assert!(check_closed_form("ECP", n, &tampered, &pages).is_err());
        let mut tampered = run;
        tampered.page_lifetimes[2] *= 1.0 + f64::EPSILON;
        assert!(check_closed_form("ECP", n, &tampered, &pages).is_err());
    }
    let unprotected = montecarlo::run_memory(schemes::unprotected(512).as_ref(), &cfg);
    check_closed_form("Unprotected", 0, &unprotected, &pages).expect("first failure kills");
}
