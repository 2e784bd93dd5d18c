//! Differential suite for the timeline sampler: the production
//! [`TimelineSampler`] (gated Box–Muller, select-then-sort, page-scoped
//! buffers) against the straightforward sort-based sampler it replaced,
//! kept here as the test oracle.
//!
//! Every case must agree bit for bit: the same events (time bits, offset,
//! stuck value, stuck kind, split seed) in the same order, *and* the same
//! RNG state after every block, so the streams of later blocks and pages
//! cannot drift either. The generator covers block widths from 1 to 1024
//! bits, event caps from 1 to the whole block, lifetime CVs up to 5 (which
//! forces many non-positive draws to be rejected and resampled), several
//! differential-write participations, stuck-value biases and
//! partially-stuck mixes.
//!
//! Failures shrink toward the first entry of each parameter list, fewer
//! blocks and smaller seeds via the in-tree `sim_rng::prop` harness; CI
//! runs the suite with `SIM_PROP_CASES=10000` (see `scripts/verify.sh`).

use aegis_pcm::pcm::timeline::{BlockTimeline, FaultEvent, TimelineSampler};
use aegis_pcm::pcm::{Fault, LifetimeModel, WearModel};
use sim_rng::prop::{shrink, Runner};
use sim_rng::{prop_assert_eq, Rng, SeedableRng, SmallRng};

const BLOCK_BITS: &[usize] = &[64, 1, 7, 128, 256, 512, 1024];
/// Event caps; 1024 keeps every cell of any block width.
const CAPS: &[usize] = &[96, 1, 10, 1024];
const CVS: &[f64] = &[0.25, 0.0, 1.0, 5.0];
const MEANS: &[f64] = &[LifetimeModel::PAPER_MEAN, 1.0];
const PARTICIPATIONS: &[f64] = &[0.5, 0.3, 1.0];
const STUCK_BIASES: &[f64] = &[0.5, 0.0, 1.0, 0.9];
const PARTIAL_MIXES: &[f64] = &[0.0, 0.25, 0.5];

/// One sampler configuration plus the stream it is driven with.
#[derive(Debug, Clone, Copy)]
struct Case {
    block_bits: usize,
    cap: usize,
    mean: f64,
    cv: f64,
    participation: f64,
    stuck_bias: f64,
    partial: f64,
    weak_success_q8: u8,
    blocks: usize,
    seed: u64,
}

impl Case {
    fn sampler(&self) -> TimelineSampler {
        TimelineSampler::new(
            self.block_bits,
            LifetimeModel::new(self.mean, self.cv),
            WearModel::new(self.participation),
            self.cap,
        )
        .with_stuck_bias(self.stuck_bias)
        .with_partial_mix(self.partial, self.weak_success_q8)
    }

    /// The sort-based sampler: every cell's fault time, a full stable sort,
    /// truncation to the cap, then the per-event draws in time order.
    fn oracle_block<R: Rng + ?Sized>(&self, rng: &mut R) -> BlockTimeline {
        let lifetime = LifetimeModel::new(self.mean, self.cv);
        let wear = WearModel::new(self.participation);
        let mut cells: Vec<(f64, usize)> = (0..self.block_bits)
            .map(|offset| (wear.fault_time(lifetime.sample(rng)), offset))
            .collect();
        // Only the earliest `max_events` failures can matter.
        cells.sort_by(|a, b| a.0.total_cmp(&b.0));
        cells.truncate(self.cap.min(self.block_bits));
        let events = cells
            .into_iter()
            .map(|(time, offset)| {
                let stuck = rng.random_bool(self.stuck_bias);
                let fault = if self.partial > 0.0 && rng.random_bool(self.partial) {
                    Fault::partial(offset, stuck, self.weak_success_q8)
                } else {
                    Fault::new(offset, stuck)
                };
                FaultEvent {
                    time,
                    fault,
                    split_seed: rng.random(),
                }
            })
            .collect();
        BlockTimeline { events }
    }
}

/// Picks one entry of `list`.
fn pick<T: Copy>(rng: &mut SmallRng, list: &[T]) -> T {
    list[rng.random_range(0..list.len())]
}

/// Shrink candidates for `value`: every entry listed before it.
fn earlier<T: Copy + PartialEq>(list: &[T], value: T) -> Vec<T> {
    let at = list.iter().position(|&x| x == value).unwrap_or(0);
    list[..at].to_vec()
}

fn generate(rng: &mut SmallRng) -> Case {
    Case {
        block_bits: pick(rng, BLOCK_BITS),
        cap: pick(rng, CAPS),
        mean: pick(rng, MEANS),
        cv: pick(rng, CVS),
        participation: pick(rng, PARTICIPATIONS),
        stuck_bias: pick(rng, STUCK_BIASES),
        partial: pick(rng, PARTIAL_MIXES),
        weak_success_q8: rng.random(),
        blocks: rng.random_range(1..=4),
        seed: rng.random(),
    }
}

fn shrink_case(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    let c = *case;
    out.extend(
        earlier(BLOCK_BITS, c.block_bits)
            .into_iter()
            .map(|block_bits| Case { block_bits, ..c }),
    );
    out.extend(
        earlier(CAPS, c.cap)
            .into_iter()
            .map(|cap| Case { cap, ..c }),
    );
    out.extend(
        earlier(MEANS, c.mean)
            .into_iter()
            .map(|mean| Case { mean, ..c }),
    );
    out.extend(earlier(CVS, c.cv).into_iter().map(|cv| Case { cv, ..c }));
    out.extend(
        earlier(PARTICIPATIONS, c.participation)
            .into_iter()
            .map(|participation| Case { participation, ..c }),
    );
    out.extend(
        earlier(STUCK_BIASES, c.stuck_bias)
            .into_iter()
            .map(|stuck_bias| Case { stuck_bias, ..c }),
    );
    out.extend(
        earlier(PARTIAL_MIXES, c.partial)
            .into_iter()
            .map(|partial| Case { partial, ..c }),
    );
    out.extend(
        shrink::usize_toward(c.blocks, 1)
            .into_iter()
            .map(|blocks| Case { blocks, ..c }),
    );
    out.extend(
        shrink::u64_down(c.seed)
            .into_iter()
            .map(|seed| Case { seed, ..c }),
    );
    out
}

/// A block's events with times as raw bits, so `-0.0`/`0.0` or NaN
/// payload differences could not hide behind `f64` equality.
fn bits(block: &BlockTimeline) -> Vec<(u64, Fault, u64)> {
    block
        .events
        .iter()
        .map(|e| (e.time.to_bits(), e.fault, e.split_seed))
        .collect()
}

#[test]
fn sampled_blocks_match_the_sort_based_oracle_bit_for_bit() {
    Runner::new("sampled_blocks_match_the_sort_based_oracle_bit_for_bit").run(
        generate,
        shrink_case,
        |case| {
            let sampler = case.sampler();
            let mut fast = SmallRng::seed_from_u64(case.seed);
            let mut oracle = SmallRng::seed_from_u64(case.seed);
            for block in 0..case.blocks {
                let got = sampler.sample_block(&mut fast);
                let want = case.oracle_block(&mut oracle);
                prop_assert_eq!(bits(&got), bits(&want), "block {} events differ", block);
                prop_assert_eq!(&fast, &oracle, "RNG state differs after block {}", block);
            }
            Ok(())
        },
    );
}

#[test]
fn sampled_pages_match_the_sort_based_oracle_bit_for_bit() {
    Runner::new("sampled_pages_match_the_sort_based_oracle_bit_for_bit").run(
        generate,
        shrink_case,
        |case| {
            // The page path reuses one buffer across blocks; a stale entry
            // from the previous block would show up here.
            let mut fast = SmallRng::seed_from_u64(case.seed);
            let page = case.sampler().sample_page(&mut fast, case.blocks);
            let mut oracle = SmallRng::seed_from_u64(case.seed);
            prop_assert_eq!(page.blocks.len(), case.blocks);
            for (i, block) in page.blocks.iter().enumerate() {
                let want = case.oracle_block(&mut oracle);
                prop_assert_eq!(bits(block), bits(&want), "block {} events differ", i);
            }
            prop_assert_eq!(&fast, &oracle, "RNG state differs after the page");
            Ok(())
        },
    );
}

/// Every grid point of the block width × cap × CV cross product, once,
/// so coverage of each listed value does not depend on the case count.
#[test]
fn every_width_cap_and_cv_combination_matches_the_oracle() {
    for &block_bits in BLOCK_BITS {
        for &cap in CAPS {
            for &cv in CVS {
                let case = Case {
                    block_bits,
                    cap,
                    mean: LifetimeModel::PAPER_MEAN,
                    cv,
                    participation: 0.5,
                    stuck_bias: 0.5,
                    partial: 0.25,
                    weak_success_q8: 128,
                    blocks: 2,
                    seed: (block_bits * 31 + cap) as u64 ^ cv.to_bits(),
                };
                let page = case
                    .sampler()
                    .sample_page(&mut SmallRng::seed_from_u64(case.seed), case.blocks);
                let mut oracle = SmallRng::seed_from_u64(case.seed);
                for block in &page.blocks {
                    assert_eq!(
                        bits(block),
                        bits(&case.oracle_block(&mut oracle)),
                        "{case:?}"
                    );
                }
            }
        }
    }
}
