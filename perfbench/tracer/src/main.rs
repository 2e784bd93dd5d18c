//! `perfbench-trace`: one in-process traced run of a benchmark workload.
//!
//! Usage: `perfbench-trace --workload W --seed N --pages P --threads T
//! --every E --out DIR` with W one of `fig5-sweep`, `fig8-partial`.
//!
//! The run does the same work as the `experiments` command of the
//! workload, through the same public entry points, with three changes made
//! from outside the library:
//!
//! - pages are pre-sampled through a timed `TimelineCache::get_or_sample`
//!   exactly as often as the command samples them (once per width for
//!   fig5, once per unit for fig8), and the cache is handed to the engine,
//!   so sampling time is billed to the timeline layer;
//! - every policy is wrapped in a [`TimedPolicy`] delegate;
//! - engine counts come from the `McTelemetry` registry and pool
//!   utilisation from the `Tracer`.
//!
//! For fig5-sweep a second pass runs the same units as a durable campaign
//! (telemetry, series, status, checkpoints every E pages, codec probe) in
//! `DIR/campaign`; it supplies the campaign metrics, and its figure CSVs
//! must equal the sweep's.
//!
//! It writes the workload's CSVs to `DIR` (the caller compares them with
//! the untimed command's), runs the closed-form and capped-page checks,
//! and prints one JSON object on stdout.

use aegis_experiments::checkpoint::{self, CheckpointCtl, UnitSpec};
use aegis_experiments::fig567::{self, Fig567};
use aegis_experiments::runner::{run_labeled_range, RunObserver, RunOptions, SchemeSummary};
use aegis_experiments::schemes::{self, Policy};
use aegis_experiments::{fig8, telemetry};
use pcm_sim::montecarlo::{self, MemoryRun, SimConfig};
use pcm_sim::policy::RecoveryPolicy;
use pcm_sim::timeline::{PageTimeline, TimelineCache, TimelineSampler, DEFAULT_WEAK_SUCCESS_Q8};
use perfbench_trace::{
    check_closed_form, check_uncapped, clock_pair_ns, closed_form_capacity, policy_totals,
    process_cpu_s, Family, Method, PolicyTotals, TimedPolicy,
};
use sim_telemetry::{Registry, RunState, RunTelemetry, SeriesWriter, StatusWriter, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig5Sweep,
    Fig8Partial,
}

struct Args {
    workload: Workload,
    opts: RunOptions,
    threads: usize,
    every: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.insert(flag, value);
    }
    let get = |flag: &str| raw.get(flag).ok_or_else(|| format!("missing {flag}"));
    let num = |flag: &str| -> Result<usize, String> {
        let v = get(flag)?;
        match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{flag}: expected a positive integer, got '{v}'")),
        }
    };
    let workload = match get("--workload")?.as_str() {
        "fig5-sweep" => Workload::Fig5Sweep,
        "fig8-partial" => Workload::Fig8Partial,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let threads = num("--threads")?;
    Ok(Args {
        workload,
        opts: RunOptions {
            pages: num("--pages")?,
            seed,
            threads: Some(threads),
            ..RunOptions::default()
        },
        threads,
        every: num("--every")?,
        out: PathBuf::from(get("--out")?),
    })
}

/// What one pass over a workload measured.
#[derive(Default)]
struct Pass {
    units: usize,
    cpu_s: f64,
    setup_s: f64,
    report_s: f64,
    sample_ns: u64,
    pages_presampled: u64,
    pages_sampled: u64,
    events_sampled: u64,
    policy: PolicyTotals,
    page_evals: u64,
    fault_events: u64,
    decisions: u64,
    busy_ns: u64,
    idle_ns: u64,
    batches: u64,
    codec_probe_s: f64,
    snapshots: u64,
    sidecar_bytes: u64,
}

/// What a pass keeps for the closed-form checks: `(label, capacity, run)`
/// of every ECP unit, and each distinct page set by key.
#[derive(Default)]
struct Kept {
    closed_form: Vec<(String, usize, MemoryRun)>,
    page_sets: Vec<(String, Vec<Arc<PageTimeline>>)>,
}

/// Pre-samples every page of `cfg` through `cache` on the pool, timing
/// each `get_or_sample` call. Returns the pages in index order.
fn presample(
    cache: &TimelineCache,
    cfg: &SimConfig,
    threads: usize,
    pass: &mut Pass,
) -> Vec<Arc<PageTimeline>> {
    // The sampler the engine builds for `cfg`: the cache key must match or
    // the engine would sample again (reported as a warning below).
    let sampler = TimelineSampler::paper_default(cfg.block_bits)
        .with_partial_mix(cfg.partial_fraction, DEFAULT_WEAK_SUCCESS_Q8);
    let blocks = cfg.blocks_per_page();
    let (pages, _) = sim_pool::run_indexed(
        threads,
        cfg.pages,
        || (),
        |(), idx| {
            let start = Instant::now();
            let page = cache.get_or_sample(&sampler, cfg.seed, idx as u64, blocks);
            #[allow(clippy::cast_possible_truncation)]
            (page, start.elapsed().as_nanos() as u64)
        },
    );
    pass.pages_presampled += pages.len() as u64;
    pages
        .into_iter()
        .map(|(page, ns)| {
            pass.sample_ns += ns;
            pass.events_sampled += page.total_events() as u64;
            page
        })
        .collect()
}

fn engine_counts(registry: &Registry, pass: &mut Pass) {
    for (name, value) in registry.counters() {
        match sim_telemetry::split_metric(&name) {
            Some(("mc", _, "pages")) => pass.page_evals += value,
            Some(("mc", _, "fault_events")) => pass.fault_events += value,
            Some(("mc", _, "policy_decisions")) => pass.decisions += value,
            _ => {}
        }
    }
}

fn pool_counts(tracer: Tracer, pass: &mut Pass) {
    let Some(log) = tracer.finish("perfbench") else {
        return;
    };
    for phase in &log.pool {
        // A phase ends at its slowest worker: everyone else waits for it.
        let wall = phase
            .workers
            .iter()
            .map(|w| w.busy_ns + w.idle_ns)
            .max()
            .unwrap_or(0);
        for w in &phase.workers {
            pass.busy_ns += w.busy_ns;
            pass.idle_ns += wall.saturating_sub(w.busy_ns);
            pass.batches += w.batches;
        }
    }
}

fn cache_misses(cache: &TimelineCache, presampled: usize, label: &str, pass: &mut Pass) {
    let misses = cache.misses();
    if misses > presampled as u64 {
        eprintln!(
            "perfbench-trace: warning: the engine sampled {} {label} pages outside the timed pre-sample",
            misses - presampled as u64
        );
    }
    pass.pages_sampled += misses;
}

fn summaries_checked(
    specs: impl IntoIterator<Item = (String, SchemeSummary)>,
    failures: &mut Vec<String>,
) -> Vec<SchemeSummary> {
    specs
        .into_iter()
        .map(|(label, summary)| {
            if let Err(msg) = check_uncapped(&label, summary.capped_pages) {
                failures.push(msg);
            }
            summary
        })
        .collect()
}

fn keep_closed_form(kept: &mut Kept, label: &str, name: &str, run: &MemoryRun) {
    if let Some(capacity) = closed_form_capacity(name) {
        kept.closed_form
            .push((label.to_owned(), capacity, run.clone()));
    }
}

/// The fig5 sweep: one shared cache per width, every scheme over it.
fn fig5_sweep(
    args: &Args,
    out: &Path,
    kept: &mut Kept,
    failures: &mut Vec<String>,
) -> std::io::Result<Pass> {
    let mut pass = Pass::default();
    let cpu0 = process_cpu_s().map_err(std::io::Error::other)?;
    let pol0 = policy_totals();
    let start = Instant::now();
    std::fs::create_dir_all(out)?;
    let sets = checkpoint::unit_policies(false);
    pass.setup_s = start.elapsed().as_secs_f64();

    let registry = Registry::new();
    let tracer = Tracer::with_default_capacity();
    let mut by_block = Vec::new();
    for (bits, set) in sets {
        let cfg = args.opts.sim_config(bits);
        let cache = TimelineCache::new();
        let pages = presample(&cache, &cfg, args.threads, &mut pass);
        let observer = RunObserver {
            registry: Some(&registry),
            tracer: Some(&tracer),
            timelines: Some(&cache),
            ..RunObserver::default()
        };
        let mut summaries = Vec::new();
        for policy in set {
            let timed = TimedPolicy::new(policy);
            let name = timed.name();
            let run = run_labeled_range(&timed, &name, &cfg, &observer, 0, cfg.pages);
            keep_closed_form(kept, &format!("{name}#{bits}"), &name, &run);
            summaries.push((name, SchemeSummary::from_run(&timed, &run)));
            pass.units += 1;
        }
        cache_misses(&cache, pages.len(), &format!("{bits}-bit"), &mut pass);
        kept.page_sets.push((format!("{bits}-bit"), pages));
        by_block.push((bits, summaries_checked(summaries, failures)));
    }
    let results = Fig567 { by_block };
    let start = Instant::now();
    std::fs::write(out.join("report.txt"), fig567::report_fig5(&results))?;
    fig567::write_csvs(&results, out)?;
    pass.report_s = start.elapsed().as_secs_f64();

    pass.cpu_s = process_cpu_s().map_err(std::io::Error::other)? - cpu0;
    pass.policy = policy_totals().since(&pol0);
    engine_counts(&registry, &mut pass);
    pool_counts(tracer, &mut pass);
    Ok(pass)
}

/// The fig5 campaign: the same units through the checkpointed driver with
/// telemetry, series and status sidecars, then the codec probe.
fn fig5_campaign(
    args: &Args,
    out: &Path,
    kept: &mut Kept,
    failures: &mut Vec<String>,
) -> std::io::Result<Pass> {
    let mut pass = Pass::default();
    let cpu0 = process_cpu_s().map_err(std::io::Error::other)?;
    let pol0 = policy_totals();
    let start = Instant::now();
    std::fs::create_dir_all(out)?;
    let dir = telemetry::dir(out);
    let run_id = telemetry::default_run_id("fig5", args.opts.seed);
    let tel = RunTelemetry::create(&run_id, &dir)?;
    let series = SeriesWriter::create(&run_id, &dir, 0)?;
    let status = StatusWriter::create(&run_id, &dir)?;
    let specs: Vec<UnitSpec> = checkpoint::unit_policies(false)
        .into_iter()
        .flat_map(|(bits, set)| {
            let cfg = args.opts.sim_config(bits);
            set.into_iter().map(move |policy| UnitSpec {
                label: policy.name(),
                cfg,
                policy: Box::new(TimedPolicy::new(policy)) as Policy,
            })
        })
        .collect();
    status.set_total_pages((specs.len() * args.opts.pages) as u64);
    let interrupted = AtomicBool::new(false);
    let ctl = CheckpointCtl {
        path: dir.join(format!("{run_id}.ckpt.json")),
        every: args.every,
        interrupted: &interrupted,
        resume: None,
        fingerprint: vec![("command".to_owned(), "fig5".to_owned())],
        target_rse: None,
    };
    pass.setup_s = start.elapsed().as_secs_f64();

    // One campaign-scope cache holding both widths, as the driver keeps.
    let cache = TimelineCache::new();
    let mut presampled = 0;
    for bits in checkpoint::FIG567_BLOCK_BITS {
        let pages = presample(&cache, &args.opts.sim_config(bits), args.threads, &mut pass);
        presampled += pages.len();
        kept.page_sets.push((format!("{bits}-bit"), pages));
    }
    let tracer = Tracer::with_default_capacity();
    let observer = RunObserver {
        registry: Some(tel.registry()),
        tracer: Some(&tracer),
        series: Some(&series),
        status: Some(&status),
        timelines: Some(&cache),
        ..RunObserver::default()
    };
    let units = checkpoint::run_units_checkpointed(&specs, args.opts.pages, &observer, &ctl)?
        .ok_or_else(|| std::io::Error::other("campaign stopped without an interrupt"))?;
    cache_misses(&cache, presampled, "campaign", &mut pass);
    let mut by_block: Vec<(usize, Vec<(String, SchemeSummary)>)> = Vec::new();
    for (spec, unit) in specs.iter().zip(&units) {
        let name = spec.policy.name();
        keep_closed_form(
            kept,
            &format!("campaign {name}#{}", unit.block_bits),
            &name,
            &unit.run,
        );
        let summary = (
            name,
            SchemeSummary::from_run(spec.policy.as_ref(), &unit.run),
        );
        match by_block.last_mut() {
            Some((bits, summaries)) if *bits == unit.block_bits => summaries.push(summary),
            _ => by_block.push((unit.block_bits, vec![summary])),
        }
        pass.units += 1;
        pass.snapshots += unit.pages_done.div_ceil(args.every) as u64;
    }
    let results = Fig567 {
        by_block: by_block
            .into_iter()
            .map(|(bits, s)| (bits, summaries_checked(s, failures)))
            .collect(),
    };
    let start = Instant::now();
    std::fs::write(out.join("report.txt"), fig567::report_fig5(&results))?;
    fig567::write_csvs(&results, out)?;
    pass.report_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    telemetry::codec_probe(tel.registry(), args.opts.seed);
    pass.codec_probe_s = start.elapsed().as_secs_f64();
    series.finish()?;
    status.mark(RunState::Done);
    engine_counts(tel.registry(), &mut pass);
    tel.finish()?;
    pass.cpu_s = process_cpu_s().map_err(std::io::Error::other)? - cpu0;
    pass.policy = policy_totals().since(&pol0);
    pool_counts(tracer, &mut pass);
    // Deterministic bytes only: the event stream and series sidecar less
    // their volatile lines (the manifest and status file carry wall clock).
    for entry in std::fs::read_dir(&dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            let text = std::fs::read_to_string(&path)?;
            pass.sidecar_bytes += sim_telemetry::strip_volatile(&text).len() as u64;
        }
    }
    Ok(pass)
}

/// The fig8 sweep: every unit samples its own chip, as the command does.
fn fig8_partial(
    args: &Args,
    out: &Path,
    kept: &mut Kept,
    failures: &mut Vec<String>,
) -> std::io::Result<Pass> {
    let mut pass = Pass::default();
    let cpu0 = process_cpu_s().map_err(std::io::Error::other)?;
    let pol0 = policy_totals();
    let start = Instant::now();
    std::fs::create_dir_all(out)?;
    let units = fig8::units();
    pass.setup_s = start.elapsed().as_secs_f64();

    let registry = Registry::new();
    let tracer = Tracer::with_default_capacity();
    let mut runs = Vec::new();
    for (percent, policy) in units {
        let cfg = args
            .opts
            .sim_config_partial(fig8::FIG8_BLOCK_BITS, percent as f64 / 100.0);
        let timed = TimedPolicy::new(policy);
        let name = timed.name();
        let label = fig8::unit_label(&name, percent);
        let cache = TimelineCache::new();
        let pages = presample(&cache, &cfg, args.threads, &mut pass);
        let observer = RunObserver {
            registry: Some(&registry),
            tracer: Some(&tracer),
            timelines: Some(&cache),
            ..RunObserver::default()
        };
        let run = run_labeled_range(&timed, &label, &cfg, &observer, 0, cfg.pages);
        cache_misses(&cache, pages.len(), &label, &mut pass);
        if let Err(msg) = check_uncapped(&label, run.capped_pages) {
            failures.push(msg);
        }
        if closed_form_capacity(&name).is_some() {
            keep_closed_form(kept, &label, &name, &run);
            kept.page_sets.push((label, pages));
        }
        runs.push(run);
        pass.units += 1;
    }
    let results = fig8::assemble(&runs);
    let start = Instant::now();
    std::fs::write(out.join("report.txt"), fig8::report(&results))?;
    fig8::write_csv(&results, out)?;
    pass.report_s = start.elapsed().as_secs_f64();

    pass.cpu_s = process_cpu_s().map_err(std::io::Error::other)? - cpu0;
    pass.policy = policy_totals().since(&pol0);
    engine_counts(&registry, &mut pass);
    pool_counts(tracer, &mut pass);
    Ok(pass)
}

/// Check (d): ECP-N and unprotected outcomes equal their closed forms.
fn closed_form_checks(kept: &Kept, workload: Workload, failures: &mut Vec<String>) {
    let pages_for = |label: &str| -> Option<&[Arc<PageTimeline>]> {
        let key = match workload {
            Workload::Fig8Partial => label.to_owned(),
            _ => format!("{}-bit", label.rsplit_once('#')?.1),
        };
        kept.page_sets
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, p)| p.as_slice())
    };
    for (label, capacity, run) in &kept.closed_form {
        let result = match pages_for(label) {
            Some(pages) => check_closed_form(label, *capacity, run, pages),
            None => Err(format!("{label}: no pages kept for the closed-form check")),
        };
        if let Err(msg) = result {
            failures.push(msg);
        }
    }
    for (key, pages) in &kept.page_sets {
        let Some(first) = pages.first() else { continue };
        let bits = 4096 * 8 / first.blocks.len();
        let policy = schemes::unprotected(bits);
        let outcomes: Vec<_> = pages
            .iter()
            .map(|p| montecarlo::evaluate_page(policy.as_ref(), p, Default::default()))
            .collect();
        let run = MemoryRun {
            page_lifetimes: outcomes.iter().map(|o| o.death_time).collect(),
            unprotected_lifetimes: pages.iter().map(|p| p.first_cell_death()).collect(),
            faults_recovered: outcomes.iter().map(|o| o.faults_recovered).collect(),
            capped_pages: outcomes.iter().filter(|o| o.capped).count(),
        };
        if let Err(msg) = check_closed_form(&format!("Unprotected {key}"), 0, &run, pages) {
            failures.push(msg);
        }
    }
}

/// The metrics of `pass`, with the campaign metrics taken from `campaign`
/// (an empty pass where the workload runs none).
fn metrics(
    pass: &Pass,
    campaign: &Pass,
    clock_ns: f64,
    campaign_overhead_s: f64,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let presampled = pass.pages_presampled as f64;
    m.insert("timeline.pages_sampled".into(), pass.pages_sampled as f64);
    m.insert("timeline.sample_s".into(), pass.sample_ns as f64 / 1e9);
    m.insert(
        "timeline.ns_per_page".into(),
        ratio(pass.sample_ns as f64 - presampled * clock_ns, presampled),
    );
    m.insert(
        "timeline.cache_hit_ratio".into(),
        1.0 - ratio(pass.pages_sampled as f64, pass.page_evals as f64),
    );
    m.insert(
        "timeline.events_per_page".into(),
        ratio(pass.events_sampled as f64, presampled),
    );
    let p = &pass.policy;
    for family in Family::REPORTED {
        let f = family.key();
        let net = |methods: &[Method]| -> (f64, f64) {
            let calls: u64 = methods.iter().map(|&x| p.calls(family, x)).sum();
            let ns: u64 = methods.iter().map(|&x| p.ns(family, x)).sum();
            (calls as f64, (ns as f64 - calls as f64 * clock_ns).max(0.0))
        };
        let (decisions, decide_ns) = net(&[Method::Recoverable, Method::Guaranteed]);
        let (observes, observe_ns) = net(&[Method::Observe]);
        m.insert(format!("policy.{f}.calls"), decisions);
        m.insert(format!("policy.{f}.s"), (decide_ns + observe_ns) / 1e9);
        m.insert(
            format!("policy.{f}.ns_per_call"),
            ratio(decide_ns, decisions),
        );
        m.insert(
            format!("policy.{f}.observe_ns_per_call"),
            ratio(observe_ns, observes),
        );
    }
    // Engine self time: pool busy time less the (gross) policy intervals;
    // pages were pre-sampled, so the engine only looks them up.
    let self_ns = (pass.busy_ns as f64 - p.total_ns() as f64).max(0.0);
    m.insert("montecarlo.page_evals".into(), pass.page_evals as f64);
    m.insert("montecarlo.fault_events".into(), pass.fault_events as f64);
    m.insert("montecarlo.decisions".into(), pass.decisions as f64);
    m.insert("montecarlo.self_s".into(), self_ns / 1e9);
    m.insert(
        "montecarlo.ns_per_event".into(),
        ratio(self_ns, pass.fault_events as f64),
    );
    m.insert(
        "pool.busy_frac".into(),
        ratio(pass.busy_ns as f64, (pass.busy_ns + pass.idle_ns) as f64),
    );
    m.insert("pool.idle_s".into(), pass.idle_ns as f64 / 1e9);
    m.insert("pool.batches".into(), pass.batches as f64);
    m.insert("campaign.overhead_s".into(), campaign_overhead_s);
    m.insert("campaign.snapshots".into(), campaign.snapshots as f64);
    m.insert(
        "campaign.sidecar_bytes".into(),
        campaign.sidecar_bytes as f64,
    );
    m.insert("campaign.codec_probe_s".into(), campaign.codec_probe_s);
    m.insert("experiments.setup_s".into(), pass.setup_s);
    m.insert("experiments.report_s".into(), pass.report_s);
    m.insert("trace.clock_ns".into(), clock_ns);
    let covered =
        pass.sample_ns as f64 / 1e9 + pass.busy_ns as f64 / 1e9 + pass.setup_s + pass.report_s;
    m.insert("trace.coverage".into(), ratio(covered, pass.cpu_s));
    m
}

fn run(args: &Args) -> std::io::Result<String> {
    if cfg!(debug_assertions) {
        return Err(std::io::Error::other(
            "refusing to trace a debug build: build with --release",
        ));
    }
    let clock_ns = clock_pair_ns(200_000);
    let mut failures = Vec::new();
    let mut kept = Kept::default();
    let (pass, campaign) = match args.workload {
        Workload::Fig5Sweep => {
            let pass = fig5_sweep(args, &args.out, &mut kept, &mut failures)?;
            // The same units as a campaign, for its metrics and for check
            // (b): identical figure CSVs.
            let campaign_dir = args.out.join("campaign");
            let campaign = fig5_campaign(args, &campaign_dir, &mut kept, &mut failures)?;
            for csv in ["fig5.csv", "fig6.csv", "fig7.csv"] {
                if std::fs::read(args.out.join(csv))? != std::fs::read(campaign_dir.join(csv))? {
                    failures.push(format!("campaign {csv} differs from the sweep's"));
                }
            }
            (pass, campaign)
        }
        Workload::Fig8Partial => {
            let pass = fig8_partial(args, &args.out, &mut kept, &mut failures)?;
            (pass, Pass::default())
        }
    };
    closed_form_checks(&kept, args.workload, &mut failures);
    for p in [&pass, &campaign] {
        if p.decisions != p.policy.total_decisions() {
            failures.push(format!(
                "engine counted {} decisions but the delegates saw a different number",
                p.decisions
            ));
        }
    }
    let campaign_overhead_s = if campaign.units > 0 {
        campaign.cpu_s - pass.cpu_s
    } else {
        0.0
    };
    let metrics = metrics(&pass, &campaign, clock_ns, campaign_overhead_s);
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}: {v}", sim_telemetry::escape(k)))
        .collect();
    let fails: Vec<String> = failures.iter().map(|f| sim_telemetry::escape(f)).collect();
    Ok(format!(
        "{{\"units\": {}, \"traced_cpu_s\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}",
        pass.units + campaign.units,
        pass.cpu_s,
        fails.join(", "),
        body.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench-trace: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench-trace: {err}");
            ExitCode::FAILURE
        }
    }
}
