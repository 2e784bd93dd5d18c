//! The one Monte Carlo executor behind every chip-level figure, and the
//! two durable campaigns (fig5/6/7 and fig8) that run through it.
//!
//! [`run_units`] evaluates a list of [`UnitSpec`]s, one `(configuration,
//! scheme)` unit after another, over a range of global page indices:
//!
//! - a plain run is `0..P` with no [`CheckpointCtl`];
//! - a shard is its stripe `lo..hi` with no control block;
//! - checkpoint, resume and `--target-rse` are `0..P` with a control
//!   block, which cuts every unit into `every`-page chunks and writes a
//!   snapshot after each chunk.
//!
//! Every page's randomness is its own substream of the master seed, so
//! the chunking never shows in the results, the deterministic stream or
//! the series sidecar: each unit reaches its barrier exactly once, with
//! its pages and estimates, at its end or at an early stop.

use crate::checkpoint::{unit_policies, Checkpoint, CheckpointCtl, UnitProgress, UnitSpec};
use crate::fig567;
use crate::fig8;
use crate::runner::{run_labeled_range, unit_estimates, RunObserver, RunOptions};
use pcm_sim::montecarlo::{MemoryRun, SimConfig};
use pcm_sim::timeline::TimelineCache;
use sim_telemetry::{RunState, SeriesWriter};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::Ordering;

/// How units share sampled page timelines when the observer brings no
/// cache of its own (a caller's cache is always used as is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timelines {
    /// Consecutive units over one chip configuration share a cache, which
    /// is dropped when the configuration changes: every scheme of a width
    /// samples each page once, and only one width is ever held.
    Shared,
    /// Every unit samples its own pages and keeps none.
    PerUnit,
}

/// Runs `specs` over the global pages `pages`, unit by unit in order.
///
/// With `ctl`, each unit runs in `ctl.every`-page chunks with a snapshot
/// after every chunk, progress is seeded from `ctl.resume` (which must
/// describe the same unit list), a unit stops at the first chunk barrier
/// where it meets `ctl.target_rse`, and a pending interrupt stops the run
/// at a barrier: the result is then `None` and the snapshot at
/// [`CheckpointCtl::path`] holds everything `--resume` needs. A finished
/// run removes its snapshot. Without `ctl` every unit runs in one chunk,
/// nothing touches the disk, and the result is always `Ok(Some(_))`.
///
/// Each unit's `pages_done` counts the pages it covers from
/// `pages.start`.
///
/// # Errors
///
/// Propagates snapshot I/O errors; a resume snapshot whose unit list
/// disagrees with `specs` is [`io::ErrorKind::InvalidData`].
pub fn run_units(
    specs: &[UnitSpec],
    pages: Range<usize>,
    observer: &RunObserver<'_>,
    timelines: Timelines,
    ctl: Option<&CheckpointCtl<'_>>,
) -> io::Result<Option<Vec<UnitProgress>>> {
    let span = pages.len();
    let every = ctl.map_or(span, |ctl| ctl.every).max(1);
    let target_rse = ctl.and_then(|ctl| ctl.target_rse);
    let mut units: Vec<UnitProgress> = specs
        .iter()
        .map(|spec| UnitProgress {
            block_bits: spec.cfg.block_bits,
            scheme: spec.label.clone(),
            pages_done: 0,
            run: MemoryRun::default(),
        })
        .collect();
    if let Some(resume) = ctl.and_then(|ctl| ctl.resume.as_ref()) {
        resume_units(&mut units, resume)?;
        if let Some(registry) = observer.registry {
            resume.restore_metrics(registry);
        }
        // Fold fully-completed prior units into the status base so a
        // resumed run's heartbeat reports global progress, not just this
        // process's share. The partial unit needs nothing: the engine
        // reports unit-global positions (`start + finished`).
        if let Some(status) = observer.status {
            for unit in units
                .iter()
                .filter(|u| u.pages_done >= span || unit_converged(u, target_rse))
            {
                status.complete_unit(unit.pages_done as u64);
            }
        }
    }

    // Writes the snapshot, then marks the heartbeat with `state`.
    let snapshot = |ctl: &CheckpointCtl<'_>, units: &[UnitProgress], state| -> io::Result<()> {
        let (counters, volatile, histograms) = match observer.registry {
            Some(r) => (r.counters(), r.volatile_counters(), r.histograms()),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        Checkpoint {
            every,
            fingerprint: ctl.fingerprint.clone(),
            counters,
            volatile,
            histograms,
            series: observer
                .series
                .map(SeriesWriter::cursor)
                .unwrap_or_default(),
            units: units.to_vec(),
        }
        .store(&ctl.path)?;
        if let Some(status) = observer.status {
            status.mark(state);
        }
        Ok(())
    };
    let interrupted = || ctl.filter(|ctl| ctl.interrupted.load(Ordering::SeqCst));

    let mut shared: Option<(SimConfig, TimelineCache)> = None;
    for (flat, spec) in specs.iter().enumerate() {
        let cache = match (observer.timelines, timelines) {
            (Some(cache), _) => Some(cache),
            (None, Timelines::PerUnit) => None,
            (None, Timelines::Shared) => {
                if shared.as_ref().is_none_or(|(cfg, _)| *cfg != spec.cfg) {
                    shared = Some((spec.cfg, TimelineCache::new()));
                }
                shared.as_ref().map(|(_, cache)| cache)
            }
        };
        let observer = RunObserver {
            timelines: cache,
            ..*observer
        };
        // The loop-entry convergence check is what makes `--resume` of an
        // early-stopped unit deterministic: surviving past a grid point
        // implies the predicate did not hold there, so a resumed run that
        // finds it holding at the stored grid point knows the original
        // run stopped exactly here — skip without re-emitting the barrier
        // (the stored series cursor already covers it). An empty range
        // still runs once, so a zero-page shard stripe reaches its
        // barriers like any other.
        let mut first = true;
        while (units[flat].pages_done < span || span == 0 && first)
            && !unit_converged(&units[flat], target_rse)
        {
            first = false;
            if let Some(ctl) = interrupted() {
                snapshot(ctl, &units, RunState::Interrupted)?;
                return Ok(None);
            }
            let unit = &mut units[flat];
            let start = pages.start + unit.pages_done;
            let end = (start + every).min(pages.end);
            let part = run_labeled_range(
                spec.policy.as_ref(),
                &spec.label,
                &spec.cfg,
                &observer,
                start,
                end,
            );
            append_run(&mut unit.run, part);
            unit.pages_done = end - pages.start;
            // The unit barrier must precede the snapshot so the stored
            // series cursor covers the sample this barrier just wrote;
            // mid-unit chunks never sample, which is exactly why the
            // sidecar is byte-identical to an unchunked run's. An early
            // stop is a unit barrier too: the unit is done short of the
            // range's end.
            if end == pages.end || unit_converged(unit, target_rse) {
                observer.unit_barrier_with(
                    unit.pages_done as u64,
                    &unit_estimates(&spec.label, spec.cfg.block_bits, &unit.run),
                );
            }
            if let Some(ctl) = ctl {
                snapshot(ctl, &units, RunState::Checkpointed)?;
            }
        }
    }
    if let Some(ctl) = ctl {
        if interrupted().is_some() {
            // A SIGINT that lands after the last chunk still stops the run
            // (reports/CSVs are skipped); the final snapshot covers everything.
            snapshot(ctl, &units, RunState::Interrupted)?;
            return Ok(None);
        }
        match std::fs::remove_file(&ctl.path) {
            Ok(()) => {}
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => return Err(err),
        }
    }
    Ok(Some(units))
}

/// Seeds `units` from a resume snapshot, refusing one that describes a
/// different unit list.
fn resume_units(units: &mut [UnitProgress], resume: &Checkpoint) -> io::Result<()> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if resume.units.len() != units.len() {
        return Err(invalid(format!(
            "checkpoint has {} units but this run has {}",
            resume.units.len(),
            units.len()
        )));
    }
    for (current, stored) in units.iter_mut().zip(&resume.units) {
        if current.block_bits != stored.block_bits || current.scheme != stored.scheme {
            return Err(invalid(format!(
                "checkpoint unit '{}' ({} bits) does not match expected '{}' ({} bits)",
                stored.scheme, stored.block_bits, current.scheme, current.block_bits
            )));
        }
        *current = stored.clone();
    }
    Ok(())
}

/// The `--target-rse` early-stop predicate, evaluated only at chunk
/// barriers: the unit's mean-lifetime relative standard error has reached
/// the target (lifetime is the campaign's highest-variance metric; when
/// it converges, the fault-count mean converged earlier). `None` — no
/// target — never stops, and fewer than [`sim_telemetry::MIN_SAMPLES`]
/// pages never stop.
fn unit_converged(unit: &UnitProgress, target_rse: Option<f64>) -> bool {
    target_rse.is_some_and(|target| unit.run.lifetime_moments().converged(target))
}

fn append_run(acc: &mut MemoryRun, part: MemoryRun) {
    acc.page_lifetimes.extend(part.page_lifetimes);
    acc.unprotected_lifetimes.extend(part.unprotected_lifetimes);
    acc.faults_recovered.extend(part.faults_recovered);
    acc.capped_pages += part.capped_pages;
}

/// A durable figure campaign: its units may be checkpointed, resumed,
/// stopped early, sharded and merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// Figures 5, 6 and 7: every fig5 scheme at both block sizes.
    Fig567,
    /// The fig8 masking sweep over partially-stuck fractions.
    Fig8,
}

impl Campaign {
    /// The campaign a figure command runs, if it runs one.
    #[must_use]
    pub fn of(command: &str) -> Option<Self> {
        match command {
            "fig5" | "fig6" | "fig7" => Some(Self::Fig567),
            "fig8" => Some(Self::Fig8),
            _ => None,
        }
    }

    /// The campaign's units in their fixed order: block size major for
    /// fig5/6/7, partially-stuck fraction major for fig8. `scalar` selects
    /// the reference predicates of the fig5 Aegis bars.
    #[must_use]
    pub fn specs(self, opts: &RunOptions, scalar: bool) -> Vec<UnitSpec> {
        match self {
            Self::Fig567 => unit_policies(scalar)
                .into_iter()
                .flat_map(|(bits, set)| UnitSpec::sweep(opts.sim_config(bits), set))
                .collect(),
            Self::Fig8 => fig8::units()
                .into_iter()
                .map(|(percent, policy)| UnitSpec {
                    label: fig8::unit_label(&policy.name(), percent),
                    cfg: opts.sim_config_partial(fig8::FIG8_BLOCK_BITS, percent as f64 / 100.0),
                    policy,
                })
                .collect(),
        }
    }

    /// [`run_units`] under this campaign's timeline sharing: fig5/6/7
    /// shares one cache per width; fig8 samples per unit, because sharing
    /// per fraction would hold about 3.6 MiB per fraction at 32 pages and
    /// raise the run's peak memory by about a quarter.
    ///
    /// # Errors
    ///
    /// As [`run_units`].
    pub fn run(
        self,
        specs: &[UnitSpec],
        pages: Range<usize>,
        observer: &RunObserver<'_>,
        ctl: Option<&CheckpointCtl<'_>>,
    ) -> io::Result<Option<Vec<UnitProgress>>> {
        let timelines = match self {
            Self::Fig567 => Timelines::Shared,
            Self::Fig8 => Timelines::PerUnit,
        };
        run_units(specs, pages, observer, timelines, ctl)
    }

    /// Name of the phase span the campaign's Monte Carlo runs under.
    #[must_use]
    pub const fn span_name(self) -> &'static str {
        match self {
            Self::Fig567 => "fig567.montecarlo",
            Self::Fig8 => "fig8.montecarlo",
        }
    }

    /// The status line announcing a run of `pages` pages per unit.
    #[must_use]
    pub fn banner(self, pages: usize) -> String {
        match self {
            Self::Fig567 => format!("[fig5-7] simulating {pages} pages per block size…"),
            Self::Fig8 => {
                format!("[fig8] sweeping partially-stuck fractions over {pages} pages per unit…")
            }
        }
    }

    /// Builds the figure results from finished `units` (in `specs`
    /// order), hands each report `command` shows to `print`, then writes
    /// the CSVs to `out_dir`. `all` shows all three fig5/6/7 reports.
    ///
    /// # Errors
    ///
    /// Propagates CSV I/O errors.
    pub fn publish(
        self,
        command: &str,
        specs: &[UnitSpec],
        units: Vec<UnitProgress>,
        out_dir: &Path,
        mut print: impl FnMut(&str),
    ) -> io::Result<()> {
        match self {
            Self::Fig567 => {
                let results = fig567::assemble(specs, &units);
                for (fig, report) in [
                    ("fig5", fig567::report_fig5 as fn(&fig567::Fig567) -> String),
                    ("fig6", fig567::report_fig6),
                    ("fig7", fig567::report_fig7),
                ] {
                    if command == fig || command == "all" {
                        print(&report(&results));
                    }
                }
                fig567::write_csvs(&results, out_dir)
            }
            Self::Fig8 => {
                let runs: Vec<MemoryRun> = units.into_iter().map(|unit| unit.run).collect();
                let results = fig8::assemble(&runs);
                print(&fig8::report(&results));
                fig8::write_csv(&results, out_dir)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// A chunked, snapshotted run of either campaign gives the very units
    /// of one unchunked pass.
    #[test]
    fn chunked_run_matches_single_shot() {
        for (campaign, pages, seed) in [(Campaign::Fig567, 5, 11), (Campaign::Fig8, 3, 13)] {
            let opts = RunOptions {
                pages,
                seed,
                ..RunOptions::default()
            };
            let specs = campaign.specs(&opts, false);
            let interrupted = AtomicBool::new(false);
            let dir = std::env::temp_dir().join(format!("aegis-chunk-test-{campaign:?}"));
            let _ = std::fs::remove_dir_all(&dir);
            let ctl = CheckpointCtl {
                path: dir.join("t.ckpt.json"),
                every: 2,
                interrupted: &interrupted,
                resume: None,
                fingerprint: Vec::new(),
                target_rse: None,
            };
            let observer = RunObserver::default();
            let chunked = campaign.run(&specs, 0..pages, &observer, Some(&ctl));
            assert!(!ctl.path.exists(), "snapshot must be removed on success");
            let straight = campaign.run(&specs, 0..pages, &observer, None);
            assert_eq!(
                chunked.expect("run"),
                straight.expect("run"),
                "{campaign:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A cache the caller brings is used for every unit and never
    /// replaced: across both widths each page is sampled exactly once.
    #[test]
    fn a_callers_cache_is_used_and_never_cleared() {
        let opts = RunOptions {
            pages: 3,
            seed: 5,
            ..RunOptions::default()
        };
        let specs = Campaign::Fig567.specs(&opts, false);
        let cache = TimelineCache::new();
        let observer = RunObserver {
            timelines: Some(&cache),
            ..RunObserver::default()
        };
        let units = run_units(&specs, 0..opts.pages, &observer, Timelines::PerUnit, None)
            .expect("run")
            .expect("no checkpoint, no stop");
        let widths = crate::checkpoint::FIG567_BLOCK_BITS.len();
        assert_eq!(units.len(), specs.len());
        assert_eq!(cache.misses(), (opts.pages * widths) as u64);
        assert_eq!(cache.len(), opts.pages * widths);
        assert_eq!(
            cache.hits(),
            (opts.pages * (specs.len() - widths)) as u64,
            "every later unit of a width reads the cached pages"
        );
    }
}
