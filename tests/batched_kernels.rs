//! Differential property suite for the PR 9 cross-block batched kernels
//! and the Monte Carlo page evaluator: on random geometries, lane counts,
//! lane occupancies, page shapes and fault populations,
//!
//! 1. [`predicate_batch`] must agree lane for lane with
//!    [`predicate_single`] *and* with the `O(f²)` pair policies
//!    ([`AegisPolicy`] under [`PairRule::AnyWrong`], [`AegisRwPolicy`]
//!    under [`PairRule::Mixed`]) — three independent formulations of the
//!    same recoverability question;
//! 2. [`encode_batch`] must produce, lane for lane, the codeword of
//!    [`encode_single`] and of a naive scalar reference that XORs the
//!    selected [`ShiftRom`] group masks one at a time;
//! 3. the engine's bound-pruned `evaluate_page_with_scratch` must
//!    reproduce, bit for bit, an unbounded oracle that runs every block
//!    to its own death, across all six policy families, both failure
//!    criteria, partial stuckness mixes 0/0.25/0.5 and block widths
//!    64–512; hand-built pages pin every branch of `capped`.
//!
//! Failures shrink toward fewer lanes, fewer faults, fewer blocks and
//! narrower blocks via the in-tree `sim_rng::prop` harness; CI runs the
//! suite with `SIM_PROP_CASES=10000` (see `scripts/verify.sh`). The
//! cross-process `SIM_FORCE_SCALAR` twin (through the experiments CLI)
//! lives in `crates/experiments/tests/`.

use aegis_experiments::schemes;
use aegis_pcm::aegis::batch::{
    encode_batch, encode_single, fault_masks, predicate_batch, predicate_single, FaultBatch,
    PairRule,
};
use aegis_pcm::aegis::rom::ShiftRom;
use aegis_pcm::aegis::{AegisPolicy, AegisRwPolicy, Rectangle};
use aegis_pcm::bitblock::{BatchBitBlock, BitBlock};
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

/// Valid `(A, B, bits)` formations the kernel generators draw from —
/// small enough to shrink well, wide enough to cross word boundaries,
/// up through the 512-bit paper formation that the batch bench gates.
const GEOMETRIES: &[(usize, usize, usize)] = &[
    (1, 3, 3),
    (2, 3, 5),
    (3, 5, 13),
    (4, 5, 17),
    (5, 7, 32),
    (5, 7, 35),
    (7, 11, 71),
    (9, 13, 112),
    (9, 61, 512),
];

/// One per-lane fault population: distinct offsets plus a W/R split.
#[derive(Debug, Clone)]
struct LanePopulation {
    faults: Vec<Fault>,
    wrong: Vec<bool>,
}

/// One batched-predicate trial: a formation and one population per lane
/// (possibly empty — random lane occupancy is part of the contract).
#[derive(Debug, Clone)]
struct PredicateCase {
    geometry: usize,
    lanes: Vec<LanePopulation>,
}

fn gen_lane(rng: &mut SmallRng, bits: usize) -> LanePopulation {
    let n = rng.random_range(0..=8usize.min(bits));
    let mut offsets: Vec<usize> = Vec::with_capacity(n);
    while offsets.len() < n {
        let offset = rng.random_range(0..bits);
        if !offsets.contains(&offset) {
            offsets.push(offset);
        }
    }
    let faults: Vec<Fault> = offsets
        .into_iter()
        .map(|offset| Fault::new(offset, rng.random_bool(0.5)))
        .collect();
    let wrong = (0..faults.len()).map(|_| rng.random()).collect();
    LanePopulation { faults, wrong }
}

fn gen_predicate_case(rng: &mut SmallRng) -> PredicateCase {
    let geometry = rng.random_range(0..GEOMETRIES.len());
    let bits = GEOMETRIES[geometry].2;
    // 1..=17 crosses every chunk width (8/4/2) with ragged remainders.
    let lanes = (0..rng.random_range(1..=17usize))
        .map(|_| gen_lane(rng, bits))
        .collect();
    PredicateCase { geometry, lanes }
}

fn shrink_predicate_case(case: &PredicateCase) -> Vec<PredicateCase> {
    let mut out = Vec::new();
    // Fewer lanes first, then fewer faults within each lane.
    for lanes in shrink::vec(&case.lanes, shrink::none) {
        if !lanes.is_empty() {
            out.push(PredicateCase {
                geometry: case.geometry,
                lanes,
            });
        }
    }
    for (l, lane) in case.lanes.iter().enumerate() {
        for keep in (0..lane.faults.len()).rev() {
            let mut lanes = case.lanes.clone();
            lanes[l] = LanePopulation {
                faults: lane.faults[..keep].to_vec(),
                wrong: lane.wrong[..keep].to_vec(),
            };
            out.push(PredicateCase {
                geometry: case.geometry,
                lanes,
            });
        }
    }
    out
}

#[test]
fn batched_predicate_matches_single_and_the_pair_policies() {
    Runner::new("batched_predicate_matches_single_and_the_pair_policies")
        .cases(1_000)
        .run(gen_predicate_case, shrink_predicate_case, |case| {
            let (a, b, bits) = GEOMETRIES[case.geometry];
            let rect = Rectangle::new(a, b, bits).expect("valid formation");
            let shift = ShiftRom::new(&rect);
            let aegis = AegisPolicy::new(rect.clone());
            let aegis_rw = AegisRwPolicy::new(rect);

            let mut batch = FaultBatch::zeros(bits, case.lanes.len());
            for (l, lane) in case.lanes.iter().enumerate() {
                batch.set_lane(l, &lane.faults, &lane.wrong);
            }
            let mut verdicts = vec![false; case.lanes.len()];
            for rule in [PairRule::AnyWrong, PairRule::Mixed] {
                predicate_batch(&shift, &batch, rule, &mut verdicts);
                for (l, lane) in case.lanes.iter().enumerate() {
                    let (f, w) = fault_masks(bits, &lane.faults, &lane.wrong);
                    prop_assert_eq!(
                        verdicts[l],
                        predicate_single(&shift, &f, &w, rule),
                        "lane {} diverged from the single-block kernel under {:?}",
                        l,
                        rule
                    );
                    let policy_verdict = match rule {
                        PairRule::AnyWrong => aegis.recoverable(&lane.faults, &lane.wrong),
                        PairRule::Mixed => aegis_rw.recoverable(&lane.faults, &lane.wrong),
                    };
                    prop_assert_eq!(
                        verdicts[l],
                        policy_verdict,
                        "lane {} diverged from the pair policy under {:?}",
                        l,
                        rule
                    );
                }
            }
            Ok(())
        });
}

/// One batched-encode trial: a formation, a slope, and per-lane
/// inversion vectors plus data words.
#[derive(Debug, Clone)]
struct EncodeCase {
    geometry: usize,
    slope: usize,
    lane_seeds: Vec<u64>,
}

fn gen_encode_case(rng: &mut SmallRng) -> EncodeCase {
    let geometry = rng.random_range(0..GEOMETRIES.len());
    let slopes = GEOMETRIES[geometry].0;
    EncodeCase {
        geometry,
        slope: rng.random_range(0..slopes),
        lane_seeds: (0..rng.random_range(1..=17usize))
            .map(|_| rng.random())
            .collect(),
    }
}

fn shrink_encode_case(case: &EncodeCase) -> Vec<EncodeCase> {
    shrink::vec(&case.lane_seeds, shrink::none)
        .into_iter()
        .filter(|seeds| !seeds.is_empty())
        .map(|lane_seeds| EncodeCase {
            lane_seeds,
            ..case.clone()
        })
        .collect()
}

#[test]
fn batched_encode_matches_single_and_a_naive_rom_reference() {
    Runner::new("batched_encode_matches_single_and_a_naive_rom_reference")
        .cases(1_000)
        .run(gen_encode_case, shrink_encode_case, |case| {
            let (a, b, bits) = GEOMETRIES[case.geometry];
            let rect = Rectangle::new(a, b, bits).expect("valid formation");
            let shift = ShiftRom::new(&rect);
            let lanes = case.lane_seeds.len();

            let mut inversions = BatchBitBlock::zeros(shift.groups(), lanes);
            let mut data = BatchBitBlock::zeros(bits, lanes);
            let mut lane_inversions = Vec::with_capacity(lanes);
            let mut lane_data = Vec::with_capacity(lanes);
            for (l, &seed) in case.lane_seeds.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(seed);
                let v = BitBlock::random_with_density(&mut rng, shift.groups(), 0.3);
                let d = BitBlock::random(&mut rng, bits);
                inversions.load_lane(l, &v);
                data.load_lane(l, &d);
                lane_inversions.push(v);
                lane_data.push(d);
            }

            let mut out = BatchBitBlock::zeros(bits, lanes);
            encode_batch(&shift, case.slope, &inversions, &data, &mut out);

            let mut single = BitBlock::zeros(bits);
            for l in 0..lanes {
                encode_single(
                    &shift,
                    case.slope,
                    &lane_inversions[l],
                    &lane_data[l],
                    &mut single,
                );
                let got = out.lane(l);
                prop_assert_eq!(
                    got.as_words(),
                    single.as_words(),
                    "lane {} diverged from the single-block kernel",
                    l
                );
                // Naive scalar reference: XOR the selected group masks
                // one at a time.
                let mut naive = lane_data[l].clone();
                for g in lane_inversions[l].ones() {
                    naive.xor_words(shift.mask_words(case.slope, g));
                }
                prop_assert_eq!(
                    got.as_words(),
                    naive.as_words(),
                    "lane {} diverged from the naive ROM reference",
                    l
                );
            }
            Ok(())
        });
}

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
