//! Outside-in instrumentation for the repository benchmark's traced run.
//!
//! Everything here wraps or reads the library crates' public items; nothing
//! inside the simulator is changed. [`TimedPolicy`] is a
//! [`RecoveryPolicy`] delegate that forwards every trait method to the
//! wrapped policy and times the three the Monte Carlo engine calls per
//! fault event or decision, billed to the policy's [`Family`]. The
//! closed-form checks re-derive ECP and unprotected page outcomes from the
//! sampled timelines, independently of any RNG stream.

use pcm_sim::montecarlo::MemoryRun;
use pcm_sim::policy::{PolicyScratch, RecoveryPolicy};
use pcm_sim::timeline::PageTimeline;
use pcm_sim::Fault;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Policy families billed separately by the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Error-correcting pointers (the control family).
    Ecp,
    /// RDIS recursive inversion.
    Rdis,
    /// SAFER partitioning.
    Safer,
    /// Aegis partitioning.
    Aegis,
    /// Additive masking (Kim & Kumar).
    Masking,
    /// Partitioned linear block codes.
    Plbc,
    /// Anything else (the unprotected reference).
    Other,
}

impl Family {
    /// The six reported families, in metric order.
    pub const REPORTED: [Family; 6] = [
        Family::Ecp,
        Family::Rdis,
        Family::Safer,
        Family::Aegis,
        Family::Masking,
        Family::Plbc,
    ];

    /// Classifies a policy by its figure label.
    #[must_use]
    pub fn of(name: &str) -> Family {
        [
            ("ECP", Family::Ecp),
            ("RDIS", Family::Rdis),
            ("SAFER", Family::Safer),
            ("Aegis", Family::Aegis),
            ("Mask", Family::Masking),
            ("PLC", Family::Plbc),
        ]
        .into_iter()
        .find_map(|(prefix, family)| name.starts_with(prefix).then_some(family))
        .unwrap_or(Family::Other)
    }

    /// Metric-name component (`policy.<key>.*`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Family::Ecp => "ecp",
            Family::Rdis => "rdis",
            Family::Safer => "safer",
            Family::Aegis => "aegis",
            Family::Masking => "masking",
            Family::Plbc => "plbc",
            Family::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const FAMILIES: usize = 7;

/// The timed trait methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `observe_fault`: once per fault arrival.
    Observe,
    /// `recoverable_with`: one split decision.
    Recoverable,
    /// `guaranteed_with`: one all-data decision.
    Guaranteed,
}

const METHODS: usize = 3;

/// Calls and gross nanoseconds per family and method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTotals {
    calls: [[u64; METHODS]; FAMILIES],
    ns: [[u64; METHODS]; FAMILIES],
}

impl PolicyTotals {
    /// Calls of `method` billed to `family`.
    #[must_use]
    pub fn calls(&self, family: Family, method: Method) -> u64 {
        self.calls[family.index()][method as usize]
    }

    /// Gross nanoseconds (clock reads included) of `method` in `family`.
    #[must_use]
    pub fn ns(&self, family: Family, method: Method) -> u64 {
        self.ns[family.index()][method as usize]
    }

    /// Decisions (`recoverable_with` + `guaranteed_with`) of `family`.
    #[must_use]
    pub fn decisions(&self, family: Family) -> u64 {
        self.calls(family, Method::Recoverable) + self.calls(family, Method::Guaranteed)
    }

    /// Decisions of every family, the unreported ones included.
    #[must_use]
    pub fn total_decisions(&self) -> u64 {
        self.calls
            .iter()
            .map(|m| m[Method::Recoverable as usize] + m[Method::Guaranteed as usize])
            .sum()
    }

    /// Gross nanoseconds of every timed call.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().flatten().sum()
    }

    /// `self - earlier`: what happened between two snapshots.
    #[must_use]
    pub fn since(&self, earlier: &PolicyTotals) -> PolicyTotals {
        let mut out = *self;
        for f in 0..FAMILIES {
            for m in 0..METHODS {
                out.calls[f][m] -= earlier.calls[f][m];
                out.ns[f][m] -= earlier.ns[f][m];
            }
        }
        out
    }
}

/// One thread's accumulators. Only the owning thread writes them, so a
/// plain load-then-store is exact; other threads read them after the pool
/// has joined.
#[derive(Default)]
struct Slot {
    calls: [[std::sync::atomic::AtomicU64; METHODS]; FAMILIES],
    ns: [[std::sync::atomic::AtomicU64; METHODS]; FAMILIES],
}

static SLOTS: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Slot> = {
        let slot = Arc::new(Slot::default());
        SLOTS.lock().expect("slot registry poisoned").push(Arc::clone(&slot));
        slot
    };
}

fn bump(cell: &std::sync::atomic::AtomicU64, delta: u64) {
    use std::sync::atomic::Ordering::Relaxed;
    cell.store(cell.load(Relaxed) + delta, Relaxed);
}

fn record(family: Family, method: Method, ns: u64) {
    LOCAL.with(|slot| {
        bump(&slot.calls[family.index()][method as usize], 1);
        bump(&slot.ns[family.index()][method as usize], ns);
    });
}

/// Sums every thread's accumulators. Call only while no timed policy runs
/// (between engine calls), so every worker's writes have been joined.
///
/// # Panics
///
/// Panics if a thread panicked while registering its slot.
#[must_use]
pub fn policy_totals() -> PolicyTotals {
    use std::sync::atomic::Ordering::Relaxed;
    let mut out = PolicyTotals::default();
    for slot in SLOTS.lock().expect("slot registry poisoned").iter() {
        for f in 0..FAMILIES {
            for m in 0..METHODS {
                out.calls[f][m] += slot.calls[f][m].load(Relaxed);
                out.ns[f][m] += slot.ns[f][m].load(Relaxed);
            }
        }
    }
    out
}

#[allow(clippy::cast_possible_truncation)]
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Mean nanoseconds one `Instant::now()` pair adds to a timed interval,
/// measured over `pairs` back-to-back reads on this thread. The delegate's
/// per-call figures are reported net of this.
#[must_use]
pub fn clock_pair_ns(pairs: u32) -> f64 {
    let mut total = 0u64;
    for _ in 0..pairs {
        let start = Instant::now();
        total += elapsed_ns(std::hint::black_box(start));
    }
    total as f64 / f64::from(pairs.max(1))
}

/// A [`RecoveryPolicy`] that forwards every method to `inner` and times
/// `observe_fault`, `recoverable_with` and `guaranteed_with`.
pub struct TimedPolicy {
    inner: Box<dyn RecoveryPolicy>,
    family: Family,
}

impl TimedPolicy {
    /// Wraps `inner`, billing its calls to the family its name implies.
    #[must_use]
    pub fn new(inner: Box<dyn RecoveryPolicy>) -> Self {
        let family = Family::of(&inner.name());
        Self { inner, family }
    }

    /// The family this delegate bills to.
    #[must_use]
    pub fn family(&self) -> Family {
        self.family
    }
}

impl RecoveryPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn overhead_bits(&self) -> usize {
        self.inner.overhead_bits()
    }

    fn block_bits(&self) -> usize {
        self.inner.block_bits()
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        self.inner.recoverable(faults, wrong)
    }

    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        let start = Instant::now();
        let verdict = self.inner.recoverable_with(faults, wrong, scratch);
        record(self.family, Method::Recoverable, elapsed_ns(start));
        verdict
    }

    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        let start = Instant::now();
        self.inner.observe_fault(faults, scratch);
        record(self.family, Method::Observe, elapsed_ns(start));
    }

    fn forget_block(&self, scratch: &mut PolicyScratch) {
        self.inner.forget_block(scratch);
    }

    fn explain(&self, faults: &[Fault], wrong: &[bool]) -> Option<String> {
        self.inner.explain(faults, wrong)
    }

    fn guaranteed(&self, faults: &[Fault]) -> bool {
        self.inner.guaranteed(faults)
    }

    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        let start = Instant::now();
        let verdict = self.inner.guaranteed_with(faults, scratch);
        record(self.family, Method::Guaranteed, elapsed_ns(start));
        verdict
    }
}

/// Closed-form outcome of a page under a scheme that absorbs any
/// `capacity` faults per block and dies at the next one: ECP-N has
/// capacity N, an unprotected page capacity 0. Returns `(death_time,
/// faults_recovered)` as the engine defines them; `None` when a block
/// outlives its truncated timeline before the earliest death.
#[must_use]
pub fn capacity_page_outcome(page: &PageTimeline, capacity: usize) -> Option<(f64, usize)> {
    let death = page
        .blocks
        .iter()
        .filter_map(|b| b.events.get(capacity).map(|e| e.time))
        .fold(f64::INFINITY, f64::min);
    let outlived = page
        .blocks
        .iter()
        .any(|b| b.events.len() <= capacity && b.events.last().is_some_and(|e| e.time < death));
    if outlived || !death.is_finite() {
        return None;
    }
    let recovered = page
        .blocks
        .iter()
        .flat_map(|b| &b.events)
        .filter(|e| e.time < death)
        .count();
    Some((death, recovered))
}

/// The per-block fault capacity a scheme's closed form uses: `Some(N)`
/// for `ECP<N>`, `Some(0)` for `Unprotected`, `None` otherwise.
#[must_use]
pub fn closed_form_capacity(name: &str) -> Option<usize> {
    if name == "Unprotected" {
        return Some(0);
    }
    name.strip_prefix("ECP")?.parse().ok()
}

/// Checks a finished run of a closed-form scheme page by page: death time
/// (bit-exact), recovered faults, and the unprotected reference death
/// (first cell failure) that every run carries. `pages[i]` must be the
/// timeline the engine evaluated as page `i`.
///
/// # Errors
///
/// The first disagreeing page, described.
pub fn check_closed_form(
    label: &str,
    capacity: usize,
    run: &MemoryRun,
    pages: &[Arc<PageTimeline>],
) -> Result<(), String> {
    if run.page_lifetimes.len() != pages.len() {
        return Err(format!(
            "{label}: run has {} pages, timeline set {}",
            run.page_lifetimes.len(),
            pages.len()
        ));
    }
    for (i, page) in pages.iter().enumerate() {
        let Some((death, recovered)) = capacity_page_outcome(page, capacity) else {
            return Err(format!("{label}: page {i} outlives its timeline"));
        };
        let got = (run.page_lifetimes[i], run.faults_recovered[i]);
        if got.0.to_bits() != death.to_bits() || got.1 != recovered {
            return Err(format!(
                "{label}: page {i} died at {} with {} faults recovered; closed form {death} with {recovered}",
                got.0, got.1
            ));
        }
        if run.unprotected_lifetimes[i].to_bits() != page.first_cell_death().to_bits() {
            return Err(format!(
                "{label}: page {i} unprotected death {} != first cell failure {}",
                run.unprotected_lifetimes[i],
                page.first_cell_death()
            ));
        }
    }
    Ok(())
}

/// Fails a unit whose death times were truncated by the event cap.
///
/// # Errors
///
/// Names the unit and its capped page count.
pub fn check_uncapped(label: &str, capped_pages: usize) -> Result<(), String> {
    if capped_pages == 0 {
        Ok(())
    } else {
        Err(format!("{label}: {capped_pages} capped pages (must be 0)"))
    }
}

/// User+system CPU seconds this process has used so far, from
/// `/proc/self/stat` (clock ticks of 1/100 s, Linux's fixed `USER_HZ`).
/// Exited threads stay counted, so the figure covers pool workers.
///
/// # Errors
///
/// When `/proc` is unavailable or the line is malformed.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Every per-layer metric the traced run prints: `(name, unit, better)`.
/// The benchmark's manifest lists exactly these (pinned by a self-test).
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = [
        ("timeline.pages_sampled", "count", "lower"),
        ("timeline.sample_s", "s", "lower"),
        ("timeline.ns_per_page", "ns", "lower"),
        ("timeline.cache_hit_ratio", "ratio", "higher"),
        ("timeline.events_per_page", "count", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_owned(), u, b))
    .collect();
    for family in Family::REPORTED {
        let f = family.key();
        out.push((format!("policy.{f}.calls"), "count", "lower"));
        out.push((format!("policy.{f}.s"), "s", "lower"));
        out.push((format!("policy.{f}.ns_per_call"), "ns", "lower"));
        out.push((format!("policy.{f}.observe_ns_per_call"), "ns", "lower"));
    }
    out.extend(
        [
            ("montecarlo.page_evals", "count", "lower"),
            ("montecarlo.fault_events", "count", "lower"),
            ("montecarlo.decisions", "count", "lower"),
            ("montecarlo.self_s", "s", "lower"),
            ("montecarlo.ns_per_event", "ns", "lower"),
            ("pool.busy_frac", "ratio", "higher"),
            ("pool.idle_s", "s", "lower"),
            ("pool.batches", "count", "lower"),
            ("campaign.overhead_s", "s", "lower"),
            ("campaign.snapshots", "count", "lower"),
            ("campaign.sidecar_bytes", "bytes", "lower"),
            ("campaign.codec_probe_s", "s", "lower"),
            ("experiments.setup_s", "s", "lower"),
            ("experiments.report_s", "s", "lower"),
            ("trace.clock_ns", "ns", "lower"),
            ("trace.overhead_frac", "ratio", "lower"),
            ("trace.coverage", "ratio", "higher"),
        ]
        .into_iter()
        .map(|(n, u, b)| (n.to_owned(), u, b)),
    );
    out
}
