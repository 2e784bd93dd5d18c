//! Fault timelines: when each cell of a block/page fails, in write-count
//! time.
//!
//! A *timeline* is the complete randomness of one simulated page: every
//! cell's fault-arrival time (derived from its sampled lifetime and the
//! differential-write wear model), the value it sticks at, and one RNG seed
//! per fault event from which the per-write W/R splits are drawn. Policies
//! are evaluated *against* timelines, so every scheme sees exactly the same
//! random world (common random numbers).

use crate::lifetime::box_muller;
use crate::{Fault, LifetimeModel, WearModel};
use sim_rng::SmallRng;
use sim_rng::{Bernoulli, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One fault arrival within a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Arrival time, in block writes since the beginning of the block's
    /// life.
    pub time: f64,
    /// The fault that appears at that time.
    pub fault: Fault,
    /// Seed for the W/R split(s) of the write that reveals this fault.
    pub split_seed: u64,
}

/// Fault arrivals of one data block, ascending in time, truncated to the
/// first `max_events` (a block is long dead before most cells fail).
#[derive(Debug, Clone, Default)]
pub struct BlockTimeline {
    /// Events in ascending time order.
    pub events: Vec<FaultEvent>,
}

impl BlockTimeline {
    /// Time of the first cell failure, or `None` for an empty timeline.
    #[must_use]
    pub fn first_fault_time(&self) -> Option<f64> {
        self.events.first().map(|e| e.time)
    }
}

/// Fault arrivals of one memory page (an OS page / "memory block" in the
/// paper): one [`BlockTimeline`] per data block.
#[derive(Debug, Clone, Default)]
pub struct PageTimeline {
    /// Per-data-block timelines.
    pub blocks: Vec<BlockTimeline>,
}

impl PageTimeline {
    /// Time of the very first cell failure anywhere in the page — the death
    /// time of an *unprotected* page.
    #[must_use]
    pub fn first_cell_death(&self) -> f64 {
        self.blocks
            .iter()
            .filter_map(BlockTimeline::first_fault_time)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total fault events recorded across all blocks.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.blocks.iter().map(|b| b.events.len()).sum()
    }
}

/// Sampler for block and page timelines.
///
/// # Examples
///
/// ```
/// use pcm_sim::timeline::TimelineSampler;
/// use sim_rng::{SeedableRng, SmallRng};
///
/// let sampler = TimelineSampler::paper_default(512);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let tl = sampler.sample_block(&mut rng);
/// assert!(!tl.events.is_empty());
/// // Events are sorted in time.
/// assert!(tl.events.windows(2).all(|w| w[0].time <= w[1].time));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TimelineSampler {
    block_bits: usize,
    lifetime: LifetimeModel,
    wear: WearModel,
    max_events: usize,
    /// Probability that a dying cell sticks at `1`. Under random write
    /// data this is ½ (the default); real devices can be asymmetric (SET
    /// vs RESET failure modes), which the bias ablation explores.
    stuck_one_probability: f64,
    /// Fraction of dying cells that are only *partially* stuck
    /// ([`crate::Stuckness::Partial`]): they still reliably store
    /// their stuck value and accept the opposite value with probability
    /// `weak_success_q8 / 256` per write. `0.0` (the default) reproduces
    /// the classic all-fully-stuck model and consumes identical entropy,
    /// so legacy runs stay byte-identical.
    partial_fraction: f64,
    /// Weak-write success probability assigned to partially stuck cells,
    /// in units of 1/256.
    weak_success_q8: u8,
}

/// Default weak-write success probability for partially stuck cells
/// (½, i.e. the weak pulse takes every other write on average).
pub const DEFAULT_WEAK_SUCCESS_Q8: u8 = 128;

/// Default cap on tracked fault events per block. No scheme in the paper
/// survives anywhere near this many faults in one 512-bit block (the best
/// reach the low thirties), so the truncation is invisible; the Monte Carlo
/// engine still counts any block that outlives its timeline as `capped` so
/// a mis-set cap is loud, not silent.
pub const DEFAULT_MAX_EVENTS_PER_BLOCK: usize = 96;

impl TimelineSampler {
    /// Creates a sampler with explicit models.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits` or `max_events` is zero.
    #[must_use]
    pub fn new(
        block_bits: usize,
        lifetime: LifetimeModel,
        wear: WearModel,
        max_events: usize,
    ) -> Self {
        assert!(block_bits > 0, "block must have at least one bit");
        assert!(max_events > 0, "must track at least one event");
        Self {
            block_bits,
            lifetime,
            wear,
            max_events: max_events.min(block_bits),
            stuck_one_probability: 0.5,
            partial_fraction: 0.0,
            weak_success_q8: DEFAULT_WEAK_SUCCESS_Q8,
        }
    }

    /// Sets the probability that a dying cell sticks at `1` (default ½).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    #[must_use]
    pub fn with_stuck_bias(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.stuck_one_probability = p;
        self
    }

    /// Makes a fraction of dying cells only partially stuck: each new fault
    /// is [`Stuckness::Partial`](crate::Stuckness::Partial) with
    /// probability `fraction`, carrying weak-write success probability
    /// `weak_success_q8 / 256`.
    ///
    /// `fraction = 0.0` is *exactly* the legacy sampler: the kind draw is
    /// skipped entirely, so the RNG stream (and hence every downstream
    /// timeline, split and result) is byte-identical to a sampler built
    /// without this call.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction ≤ 1`.
    #[must_use]
    pub fn with_partial_mix(mut self, fraction: f64, weak_success_q8: u8) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "probability out of range");
        self.partial_fraction = fraction;
        self.weak_success_q8 = weak_success_q8;
        self
    }

    /// Fraction of dying cells sampled as partially stuck.
    #[must_use]
    pub fn partial_fraction(&self) -> f64 {
        self.partial_fraction
    }

    /// The paper's §3.1 configuration for the given block width.
    #[must_use]
    pub fn paper_default(block_bits: usize) -> Self {
        Self::new(
            block_bits,
            LifetimeModel::paper_default(),
            WearModel::paper_default(),
            DEFAULT_MAX_EVENTS_PER_BLOCK,
        )
    }

    /// Block width this sampler generates timelines for.
    #[must_use]
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// Maximum events kept per block timeline.
    #[must_use]
    pub fn max_events(&self) -> usize {
        self.max_events
    }

    /// Samples the fault timeline of one data block.
    pub fn sample_block<R: Rng + ?Sized>(&self, rng: &mut R) -> BlockTimeline {
        self.sample_block_with(rng, &self.plan(), &mut CellBuffers::default())
    }

    /// Samples the fault timeline of a page of `blocks_per_page` data
    /// blocks.
    pub fn sample_page<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        blocks_per_page: usize,
    ) -> PageTimeline {
        let plan = self.plan();
        let mut buffers = CellBuffers::default();
        PageTimeline {
            blocks: (0..blocks_per_page)
                .map(|_| self.sample_block_with(rng, &plan, &mut buffers))
                .collect(),
        }
    }

    /// The per-sampler constants of [`Self::sample_block_with`].
    fn plan(&self) -> SamplePlan {
        let (mean, sd) = (self.lifetime.mean(), self.lifetime.std_dev());
        // A draw `mean + sd·z` can be non-positive only if the Box–Muller
        // radius sqrt(−2 ln u1) reaches mean/sd, i.e. u1 ≤ exp(−(mean/sd)²/2).
        let c = mean / sd;
        let reject_u1 = (-0.5 * c * c * (1.0 - GATE_SLACK)).exp();
        SamplePlan {
            reject_u1,
            gates: self.gates(c),
            stuck_one: Bernoulli::new(self.stuck_one_probability),
            partial: (self.partial_fraction > 0.0).then(|| Bernoulli::new(self.partial_fraction)),
        }
    }

    /// The candidate gates for this sampler's block shape, by ascending
    /// threshold `T`; empty where every cell is evaluated exactly.
    ///
    /// Each `T` is the lowest grid point below which a block is expected to
    /// hold `max_events` cells with some binomial standard deviations to
    /// spare: [`FIRST_GATE_SIGMAS`] for a tight first try that most blocks
    /// pass, [`LAST_GATE_SIGMAS`] for a safe widening after which the exact
    /// fallback almost never runs. Only `T ≤ 0` gates (above that a gate
    /// would admit most cells anyway), and only when `sd > 0` and the
    /// rejected left tail below `−mean/sd` is negligible (`mean ≥ 3 sd`),
    /// since that tail thins the count of cells below `T`. The thresholds
    /// affect speed only, never the sampled events.
    fn gates(&self, c: f64) -> Vec<Gate> {
        let sd = self.lifetime.std_dev();
        if !(sd > 0.0 && sd.is_finite() && c >= 3.0) {
            return Vec::new();
        }
        let (n, k) = (self.block_bits as f64, self.max_events as f64);
        let threshold = |sigmas: f64| {
            NORMAL_CDF_GRID
                .iter()
                .find(|&&(_, p)| n * p - k >= sigmas * (n * p * (1.0 - p)).sqrt())
                .map(|&(t, _)| t)
        };
        let (Some(first), Some(last)) = (threshold(FIRST_GATE_SIGMAS), threshold(LAST_GATE_SIGMAS))
        else {
            return Vec::new();
        };
        let mut thresholds = vec![first];
        if last > first {
            thresholds.push(last);
        }
        thresholds
            .into_iter()
            .filter_map(|t| Gate::at(self, t))
            .collect()
    }

    /// Fault time of the cell whose accepted uniform pair is `(u1, u2)`:
    /// exactly what `wear.fault_time(lifetime.sample(rng))` returns for it.
    #[inline]
    fn fault_time_of(&self, (u1, u2): (f64, f64)) -> f64 {
        self.wear.fault_time(self.lifetime.at(box_muller(u1, u2)))
    }

    /// [`Self::sample_block`] with precomputed constants and reused
    /// buffers.
    ///
    /// Consumes the RNG exactly as the sort-based sampler does (per cell:
    /// `u1 = 1 − U`, `u2 = U`, redrawn while the lifetime is non-positive;
    /// then per kept event: stuck value, kind, split seed) and keeps the
    /// same `max_events` events in the same `(time, offset)` order, but
    /// evaluates Box–Muller only for cells a gate admits and sorts only the
    /// survivors.
    fn sample_block_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        plan: &SamplePlan,
        buffers: &mut CellBuffers,
    ) -> BlockTimeline {
        let CellBuffers {
            pairs,
            admitted,
            cells,
        } = buffers;
        pairs.clear();
        pairs.extend((0..self.block_bits).map(|_| loop {
            let u1 = 1.0 - rng.random::<f64>();
            let u2: f64 = rng.random();
            // `lifetime.sample`'s `draw > 0` test, skipped where it cannot fail.
            if u1 > plan.reject_u1 || self.lifetime.at(box_muller(u1, u2)) > 0.0 {
                break (u1, u2);
            }
        }));
        let k = self.max_events;
        cells.clear();
        // Each gate admits a superset of the previous one's cells; only the
        // newly admitted ones are evaluated.
        let mut gated = false;
        let mut previous: Option<&Gate> = None;
        for gate in &plan.gates {
            // Branch-free compaction: the gates' verdicts are coin flips,
            // which a branch per cell would mispredict.
            admitted.resize(self.block_bits, 0);
            let mut count = 0;
            for (offset, &pair) in pairs.iter().enumerate() {
                admitted[count] = offset;
                let seen = previous.is_some_and(|p| p.admits(pair));
                count += usize::from(gate.admits(pair) & !seen);
            }
            cells.extend(
                admitted[..count]
                    .iter()
                    .map(|&offset| cell_key(self.fault_time_of(pairs[offset]), offset)),
            );
            // Every cell the gate rejected has z ≥ T, hence (fault time
            // being monotone in z) time ≥ time_T: if the k-th earliest
            // admitted cell is strictly earlier, no rejected cell can be
            // among the first k. (Offset 0 makes the key comparison a strict
            // comparison of times.)
            if cells.len() >= k {
                select_earliest(cells, k);
                if cells[k - 1] < cell_key(gate.time_t, 0) {
                    gated = true;
                    break;
                }
            }
            previous = Some(gate);
        }
        if !gated {
            cells.clear();
            cells.extend(
                pairs
                    .iter()
                    .enumerate()
                    .map(|(offset, &pair)| cell_key(self.fault_time_of(pair), offset)),
            );
            select_earliest(cells, k);
        }
        cells.truncate(k);
        cells.sort_unstable();
        let events = cells
            .iter()
            .map(|&key| {
                let (time, offset) = (f64::from_bits((key >> 64) as u64), key as u64 as usize);
                // A cell sticks at whatever it held when it died; under
                // random write data that is a fair coin (bias configurable
                // via `with_stuck_bias`).
                let stuck = plan.stuck_one.sample(rng);
                // The kind draw is skipped when the mix is disabled so a
                // zero-fraction sampler consumes exactly the legacy
                // entropy (stuck value, then split seed).
                let fault = if plan.partial.is_some_and(|p| p.sample(rng)) {
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

    /// Deterministic per-page RNG: every policy evaluated on page `index`
    /// of a run seeded with `master_seed` sees the identical timeline.
    ///
    /// Each page is its own [`sim_rng::substream_seed`] substream of the
    /// master seed, which is what makes page-range sharding and
    /// checkpoint/resume byte-exact: any process that knows `(master_seed,
    /// index)` reconstructs the identical timeline, regardless of which
    /// pages ran before it or in which process they ran.
    #[must_use]
    pub fn page_rng(master_seed: u64, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(sim_rng::substream_seed(master_seed, index))
    }
}

/// Slack on every gate bound (relative; absolute on the `u2` window): far
/// above the few-ulp error of the floating-point Box–Muller evaluation, so
/// rounding can never make a gate reject a cell that belongs in the
/// timeline.
const GATE_SLACK: f64 = 1e-6;

/// Binomial standard deviations of headroom the first gate's threshold
/// keeps above the expected count of `max_events` cells (see
/// [`TimelineSampler::gates`]).
const FIRST_GATE_SIGMAS: f64 = 1.0;

/// Headroom of the last, widest gate's threshold.
const LAST_GATE_SIGMAS: f64 = 4.0;

/// `(T, Φ(T))` for the candidate thresholds, ascending; Φ is the standard
/// normal CDF. Rounded values are fine: they pick `T`, which only moves
/// speed.
const NORMAL_CDF_GRID: [(f64, f64); 16] = [
    (-3.0, 0.00135),
    (-2.8, 0.00256),
    (-2.6, 0.00466),
    (-2.4, 0.00820),
    (-2.2, 0.01390),
    (-2.0, 0.02275),
    (-1.8, 0.03593),
    (-1.6, 0.05480),
    (-1.4, 0.08076),
    (-1.2, 0.11507),
    (-1.0, 0.15866),
    (-0.8, 0.21186),
    (-0.6, 0.27425),
    (-0.4, 0.34458),
    (-0.2, 0.42074),
    (0.0, 0.5),
];

/// Constants of one sampler's fast path, computed once per page.
#[derive(Debug)]
struct SamplePlan {
    /// Pairs with `u1` above this cannot give a non-positive lifetime, so
    /// the rejection test skips Box–Muller for them.
    reject_u1: f64,
    /// Gates by ascending threshold (see [`TimelineSampler::gates`]).
    gates: Vec<Gate>,
    /// The stuck-value draw, `random_bool(stuck_one_probability)`.
    stuck_one: Bernoulli,
    /// The partially-stuck draw; `None` when the mix is off, so no word is
    /// drawn.
    partial: Option<Bernoulli>,
}

/// A conservative filter for cells whose deviate can fall below a
/// threshold `T ≤ 0` (see DESIGN.md, "Timeline sampler").
#[derive(Debug)]
struct Gate {
    /// `exp(−T²/2)` with slack: `z < T` needs radius `> |T|`, i.e. `u1`
    /// below this.
    u1_max: f64,
    /// `T²` with slack.
    t_sq: f64,
    /// `fault_time(mean + sd·T)`: every cell the gate rejects fails no
    /// earlier than this.
    time_t: f64,
}

impl Gate {
    /// The gate of threshold `t ≤ 0` for `sampler`, or `None` if a
    /// lifetime at `t` is not positive (no accepted cell could beat it).
    fn at(sampler: &TimelineSampler, t: f64) -> Option<Self> {
        let time_t = sampler.wear.fault_time(sampler.lifetime.at(t));
        (time_t > 0.0).then(|| Gate {
            u1_max: (-0.5 * t * t * (1.0 - GATE_SLACK)).exp(),
            t_sq: t * t * (1.0 - GATE_SLACK),
            time_t,
        })
    }

    /// Whether `z = sqrt(−2 ln u1)·cos(2πu2) < T` is possible. Every test
    /// is a necessary condition, so a `false` is certain. Evaluated without
    /// short-circuits, so it compiles to straight-line code.
    #[inline]
    fn admits(&self, (u1, u2): (f64, f64)) -> bool {
        // z < T ≤ 0 needs cos(2πu2) < 0, i.e. u2 ∈ (¼, ¾).
        let in_window = (u2 > 0.25 - GATE_SLACK) & (u2 < 0.75 + GATE_SLACK);
        // With φ = 2πu2 − π, z = −r·cos φ, and cos φ ≤ 1 − φ²/2 + φ⁴/24
        // (positive on |φ| ≤ π/2 + slack), while r² = −2 ln u1 ≤ 1/u1 − u1.
        // So z < T needs r > |T| (u1 below u1_max) and
        // (1/u1 − u1)·(1 − φ²/2 + φ⁴/24)² > T², here multiplied through by
        // u1 > 0 to avoid a division. At T = 0 the two reduce to r > 0,
        // i.e. u1 < 1.
        let phi = std::f64::consts::TAU * u2 - std::f64::consts::PI;
        let phi_sq = phi * phi;
        let cos_max = 1.0 - phi_sq * (0.5 - phi_sq / 24.0);
        let far = (u1 < self.u1_max) & ((1.0 - u1 * u1) * cos_max * cos_max > self.t_sq * u1);
        in_window & far
    }
}

/// Reused per-page scratch of the sampler.
#[derive(Debug, Default)]
struct CellBuffers {
    /// Every cell's accepted `(u1, u2)` pair, by offset.
    pairs: Vec<(f64, f64)>,
    /// Offsets a gate newly admitted, compacted to the front.
    admitted: Vec<usize>,
    /// [`cell_key`]s of the cells evaluated exactly.
    cells: Vec<u128>,
}

/// A cell's sort key: the fault time's bits above the offset.
///
/// Accepted lifetimes are positive and participation is in `(0, 1]`, so
/// every fault time is positive, and positive `f64` bit patterns order
/// exactly as the values (and as `total_cmp`) do. Integer order of the
/// keys is therefore the sort-based sampler's stable sort by time: by
/// time, then offset. One integer compares faster than a tuple.
fn cell_key(time: f64, offset: usize) -> u128 {
    (u128::from(time.to_bits()) << 64) | offset as u128
}

/// Moves the `k` earliest of at least `k ≥ 1` cells to the front, the
/// k-th earliest at `k − 1` and the rest before it in no order.
fn select_earliest(cells: &mut [u128], k: usize) {
    cells.select_nth_unstable(k - 1);
}

/// Default cap on distinct pages a [`TimelineCache`] retains.
pub const DEFAULT_TIMELINE_CACHE_PAGES: usize = 16_384;

/// A shared, thread-safe cache of sampled [`PageTimeline`]s.
///
/// Timelines are the engine's common random numbers: every scheme evaluated
/// under one `(master_seed, page, blocks_per_page, sampler)` tuple sees the
/// *identical* timeline by construction, yet historically each scheme
/// re-sampled it from the per-page RNG. Sampling is one of the largest
/// layers of a chip sweep: even with this cache it is about a fifth of the
/// CPU of a traced `perfbench` fig5-sweep run on a 2-core x86-64 host.
/// Without the cache a sweep over S schemes pays that cost S times for
/// bit-identical data. The cache samples each page once and hands out
/// `Arc` clones to every subsequent run.
///
/// # Determinism
///
/// A cached timeline is a pure function of its key: on a miss the cache
/// derives the same [`TimelineSampler::page_rng`] stream the uncached path
/// uses, so hit and miss return bit-identical events and the per-page RNG
/// is never observable downstream (per-event splits re-seed from
/// [`FaultEvent::split_seed`]). Two workers racing on the same missing key
/// sample the same value; the first insert wins and the loser's copy is
/// dropped. Results are therefore byte-identical with the cache on or off,
/// across thread counts and across processes.
///
/// The capacity is a page-count cap, not an eviction policy: once full, new
/// keys are sampled and returned *uncached* (correct, just not shared).
pub struct TimelineCache {
    map: Mutex<HashMap<CacheKey, Arc<PageTimeline>>>,
    max_pages: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Cache key: the full provenance of one sampled page. The sampler is
/// fingerprinted by its `Debug` rendering, which spells out every model
/// parameter (including exact float values), so samplers that could ever
/// produce different timelines never share an entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    seed: u64,
    page: u64,
    blocks_per_page: usize,
    sampler: String,
}

impl Default for TimelineCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TimelineCache {
    /// An empty cache holding up to [`DEFAULT_TIMELINE_CACHE_PAGES`] pages.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TIMELINE_CACHE_PAGES)
    }

    /// An empty cache retaining at most `max_pages` distinct pages
    /// (`0` disables retention entirely — every call samples).
    #[must_use]
    pub fn with_capacity(max_pages: usize) -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            max_pages,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the timeline of `(master_seed, page)` for `sampler`,
    /// sampling and (capacity permitting) retaining it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking thread.
    pub fn get_or_sample(
        &self,
        sampler: &TimelineSampler,
        master_seed: u64,
        page: u64,
        blocks_per_page: usize,
    ) -> Arc<PageTimeline> {
        let key = CacheKey {
            seed: master_seed,
            page,
            blocks_per_page,
            sampler: format!("{sampler:?}"),
        };
        if let Some(hit) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Sample outside the lock: pages are independent substreams, so
        // concurrent misses on different keys sample in parallel.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut rng = TimelineSampler::page_rng(master_seed, page);
        let fresh = Arc::new(sampler.sample_page(&mut rng, blocks_per_page));
        let mut map = self.map.lock().unwrap();
        if let Some(raced) = map.get(&key) {
            // Another worker sampled the identical timeline first; keep the
            // shared copy so every consumer aliases one allocation.
            return Arc::clone(raced);
        }
        if map.len() < self.max_pages {
            map.insert(key, Arc::clone(&fresh));
        }
        fresh
    }

    /// Distinct pages currently retained.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache holds no pages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to sample so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_timeline_is_sorted_and_capped() {
        let sampler = TimelineSampler::new(
            512,
            LifetimeModel::new(1000.0, 0.25),
            WearModel::paper_default(),
            10,
        );
        let mut rng = SmallRng::seed_from_u64(3);
        let tl = sampler.sample_block(&mut rng);
        assert_eq!(tl.events.len(), 10);
        assert!(tl.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn offsets_are_unique_within_block() {
        let sampler = TimelineSampler::paper_default(256);
        let mut rng = SmallRng::seed_from_u64(4);
        let tl = sampler.sample_block(&mut rng);
        let mut offsets: Vec<usize> = tl.events.iter().map(|e| e.fault.offset).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), tl.events.len());
    }

    #[test]
    fn wear_model_doubles_fault_times() {
        let fast =
            TimelineSampler::new(64, LifetimeModel::new(1000.0, 0.0), WearModel::new(1.0), 1);
        let slow =
            TimelineSampler::new(64, LifetimeModel::new(1000.0, 0.0), WearModel::new(0.5), 1);
        let mut rng = SmallRng::seed_from_u64(5);
        let a = fast.sample_block(&mut rng).events[0].time;
        let b = slow.sample_block(&mut rng).events[0].time;
        assert_eq!(a, 1000.0);
        assert_eq!(b, 2000.0);
    }

    #[test]
    fn page_first_cell_death_is_min_over_blocks() {
        let sampler = TimelineSampler::paper_default(128);
        let mut rng = SmallRng::seed_from_u64(6);
        let page = sampler.sample_page(&mut rng, 8);
        let manual = page
            .blocks
            .iter()
            .map(|b| b.events[0].time)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(page.first_cell_death(), manual);
        assert_eq!(page.total_events(), 8 * sampler.max_events());
    }

    #[test]
    fn page_rng_is_deterministic_per_index() {
        use sim_rng::Rng;
        let mut a = TimelineSampler::page_rng(7, 3);
        let mut b = TimelineSampler::page_rng(7, 3);
        let mut c = TimelineSampler::page_rng(7, 4);
        let (x, y, z): (u64, u64, u64) = (a.random(), b.random(), c.random());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_block_bits_panics() {
        let _ = TimelineSampler::new(
            0,
            LifetimeModel::paper_default(),
            WearModel::paper_default(),
            1,
        );
    }

    #[test]
    fn stuck_bias_shifts_the_value_distribution() {
        let biased = TimelineSampler::paper_default(512).with_stuck_bias(0.9);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut ones = 0usize;
        let mut total = 0usize;
        for _ in 0..30 {
            for event in biased.sample_block(&mut rng).events {
                ones += usize::from(event.fault.stuck);
                total += 1;
            }
        }
        let fraction = ones as f64 / total as f64;
        assert!((0.85..0.95).contains(&fraction), "{fraction}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_bias_panics() {
        let _ = TimelineSampler::paper_default(64).with_stuck_bias(1.5);
    }

    #[test]
    fn zero_partial_mix_is_stream_identical_to_legacy() {
        let plain = TimelineSampler::paper_default(512);
        let mixed = plain.with_partial_mix(0.0, 200);
        let mut a = SmallRng::seed_from_u64(12);
        let mut b = SmallRng::seed_from_u64(12);
        for _ in 0..5 {
            let ta = plain.sample_block(&mut a);
            let tb = mixed.sample_block(&mut b);
            assert_eq!(ta.events, tb.events);
        }
        // RNG state also agrees afterwards.
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn partial_mix_fraction_shows_up_in_sampled_kinds() {
        let sampler = TimelineSampler::paper_default(512).with_partial_mix(0.4, 99);
        assert_eq!(sampler.partial_fraction(), 0.4);
        let mut rng = SmallRng::seed_from_u64(13);
        let mut partial = 0usize;
        let mut total = 0usize;
        for _ in 0..30 {
            for event in sampler.sample_block(&mut rng).events {
                if let crate::fault::Stuckness::Partial { weak_success_q8 } = event.fault.kind {
                    assert_eq!(weak_success_q8, 99);
                    partial += 1;
                }
                total += 1;
            }
        }
        let fraction = partial as f64 / total as f64;
        assert!((0.33..0.47).contains(&fraction), "{fraction}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_partial_fraction_panics() {
        let _ = TimelineSampler::paper_default(64).with_partial_mix(-0.1, 128);
    }

    #[test]
    fn gate_never_rejects_a_deviate_below_its_threshold() {
        let sampler = TimelineSampler::paper_default(512);
        let mut rng = SmallRng::seed_from_u64(21);
        for &(t, _) in &NORMAL_CDF_GRID {
            let gate = Gate::at(&sampler, t).expect("positive lifetime at every grid point");
            let mut below = 0usize;
            for i in 0..200_000u32 {
                let (a, b): (f64, f64) = (rng.random(), rng.random());
                let (u1, u2) = match i % 4 {
                    // Uniform pairs.
                    0 => (1.0 - a, b),
                    // Large radii (u1 down to e⁻²⁰) anywhere in the window.
                    1 => ((-20.0 * a).exp(), 0.25 + 0.5 * b),
                    // Within 1e-12 of a quarter-turn edge of the window.
                    2 => (
                        (-20.0 * a).exp(),
                        [0.25, 0.75][i as usize / 4 % 2] + (b - 0.5) * 2e-12,
                    ),
                    // Radius within 1e-6 of |T| near φ = 0, where the u1 and
                    // Taylor bounds are tightest.
                    _ => (
                        (-0.5 * t * t).exp() * (1.0 + (a - 0.5) * 2e-6),
                        0.5 + (b - 0.5) * 1e-3,
                    ),
                };
                if box_muller(u1, u2) < t {
                    below += 1;
                    assert!(gate.admits((u1, u2)), "T={t}: rejected ({u1}, {u2})");
                }
            }
            assert!(below > 0, "T={t}: no deviate below the threshold");
        }
    }

    #[test]
    fn gates_are_picked_from_the_block_shape() {
        let thresholds = |sampler: TimelineSampler| -> Vec<f64> {
            let gates = sampler.plan().gates;
            gates
                .iter()
                .map(|g| -(g.t_sq / (1.0 - GATE_SLACK)).sqrt())
                .collect()
        };
        let shape = |bits: usize, k: usize| {
            thresholds(TimelineSampler::new(
                bits,
                LifetimeModel::paper_default(),
                WearModel::paper_default(),
                k,
            ))
        };
        let close = |got: Vec<f64>, want: &[f64]| {
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() < 1e-9)
        };
        assert!(close(shape(512, 96), &[-0.8, -0.6]));
        assert!(close(shape(256, 96), &[-0.2, 0.0]));
        // The whole block, or a cap too close to half of it: no gate.
        assert!(shape(512, 512).is_empty());
        assert!(shape(7, 1).is_empty());
        // No spread, or a heavy truncated tail: no gate either.
        let paper = WearModel::paper_default();
        assert!(thresholds(TimelineSampler::new(
            512,
            LifetimeModel::new(1e8, 0.0),
            paper,
            96
        ))
        .is_empty());
        assert!(thresholds(TimelineSampler::new(
            512,
            LifetimeModel::new(1e8, 1.0),
            paper,
            96
        ))
        .is_empty());
    }

    #[test]
    fn exact_fallback_keeps_aggressive_thresholds_byte_identical() {
        // Gate chains whose thresholds sit far below (too few candidates)
        // and around (k-th candidate not before time_T) the 96th of 512
        // order statistic force widening and the exact fallback; every
        // chain must sample what the ungated exact path samples, and leave
        // the RNG in the same state.
        let sampler = TimelineSampler::paper_default(512).with_partial_mix(0.25, 128);
        let exact = SamplePlan {
            gates: Vec::new(),
            ..sampler.plan()
        };
        let chains: [&[f64]; 7] = [
            &[-2.0],
            &[-0.9],
            &[0.0],
            &[-2.0, -1.0],
            &[-1.0, -0.9],
            &[-0.9, -0.8],
            &[-0.8, -0.6],
        ];
        for chain in chains {
            let plan = SamplePlan {
                gates: chain
                    .iter()
                    .filter_map(|&t| Gate::at(&sampler, t))
                    .collect(),
                ..sampler.plan()
            };
            assert_eq!(plan.gates.len(), chain.len());
            let mut a = SmallRng::seed_from_u64(31);
            let mut b = SmallRng::seed_from_u64(31);
            let (mut buf_a, mut buf_b) = (CellBuffers::default(), CellBuffers::default());
            for _ in 0..200 {
                let got = sampler.sample_block_with(&mut a, &plan, &mut buf_a);
                let want = sampler.sample_block_with(&mut b, &exact, &mut buf_b);
                assert_eq!(got.events, want.events, "T={chain:?}");
            }
            assert_eq!(a, b, "T={chain:?}");
        }
    }

    fn assert_pages_equal(a: &PageTimeline, b: &PageTimeline) {
        assert_eq!(a.blocks.len(), b.blocks.len());
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x.events, y.events);
        }
    }

    #[test]
    fn cache_hits_are_bit_identical_to_uncached_sampling() {
        let sampler = TimelineSampler::paper_default(256);
        let cache = TimelineCache::with_capacity(8);
        for page in [0u64, 3, 7] {
            let cached = cache.get_or_sample(&sampler, 99, page, 4);
            let again = cache.get_or_sample(&sampler, 99, page, 4);
            let mut rng = TimelineSampler::page_rng(99, page);
            let direct = sampler.sample_page(&mut rng, 4);
            assert_pages_equal(&cached, &direct);
            // The second lookup aliases the first allocation.
            assert!(Arc::ptr_eq(&cached, &again));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn cache_keys_separate_samplers_seeds_and_shapes() {
        let a = TimelineSampler::paper_default(256);
        let b = TimelineSampler::paper_default(256).with_partial_mix(0.5, 77);
        let cache = TimelineCache::with_capacity(16);
        let base = cache.get_or_sample(&a, 1, 0, 4);
        // Different sampler parameters, seed, page and page shape all miss.
        assert!(!Arc::ptr_eq(&base, &cache.get_or_sample(&b, 1, 0, 4)));
        assert!(!Arc::ptr_eq(&base, &cache.get_or_sample(&a, 2, 0, 4)));
        assert!(!Arc::ptr_eq(&base, &cache.get_or_sample(&a, 1, 1, 4)));
        assert!(!Arc::ptr_eq(&base, &cache.get_or_sample(&a, 1, 0, 2)));
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 0);
        // And the original key still hits.
        assert!(Arc::ptr_eq(&base, &cache.get_or_sample(&a, 1, 0, 4)));
    }

    #[test]
    fn full_cache_still_serves_correct_uncached_timelines() {
        let sampler = TimelineSampler::paper_default(128);
        let cache = TimelineCache::with_capacity(1);
        let first = cache.get_or_sample(&sampler, 5, 0, 2);
        let overflow = cache.get_or_sample(&sampler, 5, 1, 2);
        assert_eq!(cache.len(), 1, "capacity caps retention");
        let mut rng = TimelineSampler::page_rng(5, 1);
        assert_pages_equal(&overflow, &sampler.sample_page(&mut rng, 2));
        // The retained page keeps hitting; the overflow page keeps missing
        // but stays correct.
        assert!(Arc::ptr_eq(&first, &cache.get_or_sample(&sampler, 5, 0, 2)));
        let overflow_again = cache.get_or_sample(&sampler, 5, 1, 2);
        assert!(!Arc::ptr_eq(&overflow, &overflow_again));
        assert_pages_equal(&overflow, &overflow_again);
    }
}
