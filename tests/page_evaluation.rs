//! Differential property suite for the Monte Carlo page evaluator: the
//! engine's bound-pruned `evaluate_page_with_scratch` must reproduce, bit
//! for bit, an unbounded oracle that runs every block to its own death,
//! across all six policy families, both failure criteria, partial
//! stuckness mixes 0/0.25/0.5 and block widths 64–512; hand-built pages
//! pin every branch of `capped`.
//!
//! Failures shrink toward fewer blocks, narrower blocks and a smaller
//! partial mix via the in-tree `sim_rng::prop` harness; CI runs the suite
//! with `SIM_PROP_CASES=10000` (see `scripts/verify.sh`).

use aegis_experiments::schemes;
use aegis_pcm::pcm::montecarlo::{
    evaluate_block_with_scratch, evaluate_page_with_scratch, FailureCriterion, McTelemetry,
    PageOutcome,
};
use aegis_pcm::pcm::policy::{PolicyScratch, RecoveryPolicy};
use aegis_pcm::pcm::timeline::{
    BlockTimeline, FaultEvent, PageTimeline, TimelineSampler, DEFAULT_WEAK_SUCCESS_Q8,
};
use aegis_pcm::pcm::Fault;
use aegis_pcm::telemetry::Registry;
use sim_rng::prop::{shrink, Runner};
use sim_rng::{prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};
use std::collections::BTreeMap;

/// Today's page evaluation before the running bound, kept verbatim as the
/// oracle: every block runs to its own death, then the page takes the
/// minimum.
fn oracle_evaluate_page(
    policy: &dyn RecoveryPolicy,
    page: &PageTimeline,
    criterion: FailureCriterion,
    scratch: &mut PolicyScratch,
) -> PageOutcome {
    let mut death_time = f64::INFINITY;
    let mut capped = false;
    for block in &page.blocks {
        let outcome = evaluate_block_with_scratch(policy, block, criterion, None, scratch);
        match outcome.death_time {
            Some(t) => death_time = death_time.min(t),
            None => capped = true,
        }
    }
    // A block that outlived its truncated timeline only matters if it could
    // have died before the earliest real death; its last tracked event is a
    // lower bound witness.
    let capped = capped
        && page
            .blocks
            .iter()
            .any(|b| b.events.last().is_some_and(|e| e.time < death_time));
    let faults_recovered = page
        .blocks
        .iter()
        .flat_map(|b| &b.events)
        .filter(|e| e.time < death_time)
        .count();
    PageOutcome {
        death_time,
        faults_recovered,
        capped,
    }
}

/// Block widths the engine trial draws from.
const WIDTHS: [usize; 4] = [64, 128, 256, 512];

/// Partially stuck fractions the engine trial draws from.
const PARTIAL_MIXES: [f64; 3] = [0.0, 0.25, 0.5];

/// The six policy families the Monte Carlo engine ships, built at
/// `block_bits` with an Aegis formation valid at that width.
fn policy_family(index: usize, block_bits: usize) -> (schemes::Policy, &'static str) {
    let (a, b) = match block_bits {
        64 => (4, 17),
        128 => (4, 37),
        256 => (9, 31),
        _ => (9, 61),
    };
    match index {
        0 => (schemes::aegis(a, b, block_bits), "aegis"),
        1 => (schemes::aegis_rw(a, b, block_bits), "aegis-rw"),
        2 => (schemes::aegis_rw_p(a, b, block_bits, 2), "aegis-rw-p"),
        3 => (schemes::ecp(4, block_bits), "ecp"),
        4 => (schemes::safer(5, block_bits, false), "safer"),
        _ => (schemes::rdis3(block_bits), "rdis"),
    }
}

/// Counter snapshot of a registry, by name.
fn counters(registry: &Registry) -> BTreeMap<String, u64> {
    registry.counters().into_iter().collect()
}

/// One engine trial: a policy family, a block width, a page shape, a
/// stuckness mix, a criterion and a timeline seed.
#[derive(Debug, Clone)]
struct EngineCase {
    family: usize,
    width: usize,
    blocks: usize,
    partial: usize,
    guarantee: bool,
    seed: u64,
}

fn gen_engine_case(rng: &mut SmallRng) -> EngineCase {
    EngineCase {
        family: rng.random_range(0..6usize),
        width: rng.random_range(0..WIDTHS.len()),
        // Up to 12 blocks: enough for the bound to fall several times.
        blocks: rng.random_range(1..=12usize),
        partial: rng.random_range(0..PARTIAL_MIXES.len()),
        guarantee: rng.random_bool(0.3),
        seed: rng.random(),
    }
}

fn shrink_engine_case(case: &EngineCase) -> Vec<EngineCase> {
    let mut out = Vec::new();
    for blocks in shrink::usize_toward(case.blocks, 1) {
        out.push(EngineCase {
            blocks,
            ..case.clone()
        });
    }
    for width in shrink::usize_toward(case.width, 0) {
        out.push(EngineCase {
            width,
            ..case.clone()
        });
    }
    for partial in shrink::usize_toward(case.partial, 0) {
        out.push(EngineCase {
            partial,
            ..case.clone()
        });
    }
    out
}

#[test]
fn bounded_page_evaluation_matches_the_unbounded_oracle() {
    Runner::new("bounded_page_evaluation_matches_the_unbounded_oracle")
        .cases(200)
        .run(gen_engine_case, shrink_engine_case, |case| {
            let bits = WIDTHS[case.width];
            let (policy, name) = policy_family(case.family, bits);
            let sampler = TimelineSampler::paper_default(bits)
                .with_partial_mix(PARTIAL_MIXES[case.partial], DEFAULT_WEAK_SUCCESS_Q8);
            let mut rng = SmallRng::seed_from_u64(case.seed);
            let page = sampler.sample_page(&mut rng, case.blocks);
            let criterion = if case.guarantee {
                FailureCriterion::GuaranteedAllData
            } else {
                FailureCriterion::PerEventSplit { samples: 1 }
            };

            let registry = Registry::new();
            let telemetry = McTelemetry::for_scheme(&registry, name);
            let bounded = evaluate_page_with_scratch(
                policy.as_ref(),
                &page,
                criterion,
                Some(&telemetry),
                &mut PolicyScratch::new(),
            );
            let oracle =
                oracle_evaluate_page(policy.as_ref(), &page, criterion, &mut PolicyScratch::new());
            prop_assert_eq!(
                bounded.death_time.to_bits(),
                oracle.death_time.to_bits(),
                "{}: death time diverged",
                name
            );
            prop_assert_eq!(bounded.faults_recovered, oracle.faults_recovered);
            prop_assert_eq!(bounded.capped, oracle.capped);

            // Every block has exactly one fate, and the bound never adds
            // work.
            let c = counters(&registry);
            let metric = |m: &str| c[&format!("mc.{name}.{m}")];
            prop_assert_eq!(
                metric("block_deaths_split")
                    + metric("block_deaths_guarantee")
                    + metric("blocks_outlived")
                    + metric("blocks_stopped"),
                case.blocks as u64
            );
            prop_assert!(metric("fault_events") <= page.total_events() as u64);
            Ok(())
        });
}

fn block(times: &[f64]) -> BlockTimeline {
    BlockTimeline {
        events: times
            .iter()
            .enumerate()
            .map(|(i, &time)| FaultEvent {
                time,
                fault: Fault::new(i, false),
                split_seed: i as u64,
            })
            .collect(),
    }
}

/// A hand-built page: block 0 dies at 3.0, then `rest`.
struct CappedCase {
    /// The branch the page exercises.
    what: &'static str,
    /// Event times of the blocks after block 0.
    rest: &'static [&'static [f64]],
    capped: bool,
    /// Blocks that died, outlived and were stopped.
    fates: (u64, u64, u64),
}

/// Hand-built pages for every branch of `capped` and the stopping rule,
/// under ECP2 (a block dies at its third fault whatever the data). Block 0
/// dies at 3.0 in each, so the bound is 3.0 from block 1 on. Out-of-order
/// timelines are the only way to reach the unbounded finish: on a
/// time-sorted page, a block whose last event precedes the page death
/// has always run to the end of its timeline.
#[test]
fn hand_built_pages_take_every_capped_branch_like_the_oracle() {
    let (policy, name) = (schemes::ecp(2, 64), "ecp");
    let dies_at_3 = [1.0, 2.0, 3.0];
    let cases = [
        CappedCase {
            what: "outlived and not stopped",
            rest: &[&[0.5], &[]],
            capped: true,
            fates: (1, 2, 0),
        },
        CappedCase {
            what: "stopped, would outlive",
            rest: &[&[3.5]],
            capped: false,
            fates: (1, 0, 1),
        },
        CappedCase {
            what: "stopped, would die; tie at the bound",
            rest: &[&[2.5, 3.0, 3.5]],
            capped: false,
            fates: (1, 0, 1),
        },
        CappedCase {
            what: "stopped, would die exactly at the bound",
            rest: &[&[1.5, 2.5, 3.0]],
            capped: false,
            fates: (1, 0, 1),
        },
        CappedCase {
            what: "finished unbounded, outlives",
            rest: &[&[4.0, 0.5]],
            capped: true,
            fates: (1, 1, 0),
        },
        CappedCase {
            what: "finished unbounded, dies",
            rest: &[&[4.0, 5.0, 6.0, 0.5]],
            capped: false,
            fates: (2, 0, 0),
        },
    ];
    let mut scratch = PolicyScratch::new();
    for criterion in [
        FailureCriterion::PerEventSplit { samples: 1 },
        FailureCriterion::GuaranteedAllData,
    ] {
        for case in &cases {
            let what = case.what;
            let page = PageTimeline {
                blocks: std::iter::once(block(&dies_at_3))
                    .chain(case.rest.iter().map(|times| block(times)))
                    .collect(),
            };
            let registry = Registry::new();
            let telemetry = McTelemetry::for_scheme(&registry, name);
            let bounded = evaluate_page_with_scratch(
                policy.as_ref(),
                &page,
                criterion,
                Some(&telemetry),
                &mut scratch,
            );
            let oracle =
                oracle_evaluate_page(policy.as_ref(), &page, criterion, &mut PolicyScratch::new());
            assert_eq!(bounded, oracle, "{what}, {criterion:?}");
            assert_eq!(bounded.death_time, 3.0, "{what}");
            assert_eq!(bounded.capped, case.capped, "{what}");
            let c = counters(&registry);
            let died_total = c["mc.ecp.block_deaths_split"] + c["mc.ecp.block_deaths_guarantee"];
            assert_eq!(
                (
                    died_total,
                    c["mc.ecp.blocks_outlived"],
                    c["mc.ecp.blocks_stopped"]
                ),
                case.fates,
                "{what}, {criterion:?}"
            );
        }
    }
}
