//! Figures 11, 12 and 13: Aegis vs its cache-assisted variants (Aegis-rw,
//! Aegis-rw-p) on the four 512-bit formations — one run powers all three
//! figures.

use crate::campaign::{run_units, Timelines};
use crate::checkpoint::UnitSpec;
use crate::csvout::{self, fmt_f64};
use crate::runner::{RunObserver, RunOptions, SchemeSummary};
use crate::schemes;
use std::io;
use std::path::Path;

/// Per-scheme summaries for the variant comparison (512-bit blocks).
#[derive(Debug, Clone)]
pub struct Variants {
    /// One summary per (formation × variant) bar.
    pub summaries: Vec<SchemeSummary>,
}

/// Runs the Figure 11/12/13 scheme set.
#[must_use]
pub fn run(opts: &RunOptions) -> Variants {
    run_with(opts, &RunObserver::default())
}

/// [`run`] with telemetry/progress observation. All schemes share one
/// sampled chip.
#[must_use]
pub fn run_with(opts: &RunOptions, observer: &RunObserver<'_>) -> Variants {
    let specs = UnitSpec::sweep(opts.sim_config(512), schemes::variant_schemes());
    let units = run_units(&specs, 0..opts.pages, observer, Timelines::Shared, None)
        .expect("a run without a checkpoint does no I/O")
        .expect("a run without a checkpoint never stops early");
    Variants {
        summaries: specs
            .iter()
            .zip(&units)
            .map(|(spec, unit)| SchemeSummary::from_run(spec.policy.as_ref(), &unit.run))
            .collect(),
    }
}

/// Figure 11: recoverable faults per 4 KB page.
#[must_use]
pub fn report_fig11(results: &Variants) -> String {
    let mut out = String::from(
        "Figure 11: recoverable faults per 4KB page (Aegis vs variants, 512-bit blocks)\n\n",
    );
    for s in &results.summaries {
        out.push_str(&format!(
            "{:<22} {:>4} bits  {:>8} faults\n",
            s.name,
            s.overhead_bits,
            fmt_f64(s.mean_faults_recovered)
        ));
    }
    out
}

/// Figure 12: lifetime improvement in percent over the unprotected page.
#[must_use]
pub fn report_fig12(results: &Variants) -> String {
    let mut out =
        String::from("Figure 12: page lifetime improvement (%) over an unprotected page\n\n");
    for s in &results.summaries {
        out.push_str(&format!(
            "{:<22} {:>4} bits  {:>9}%\n",
            s.name,
            s.overhead_bits,
            fmt_f64((s.lifetime_improvement - 1.0) * 100.0)
        ));
    }
    out
}

/// Figure 13: per-overhead-bit contribution to the improvement.
#[must_use]
pub fn report_fig13(results: &Variants) -> String {
    let mut out =
        String::from("Figure 13: per-overhead-bit contribution to the lifetime improvement\n\n");
    for s in &results.summaries {
        out.push_str(&format!(
            "{:<22} {:>4} bits  {:>9}%/bit\n",
            s.name,
            s.overhead_bits,
            fmt_f64((s.lifetime_improvement - 1.0) * 100.0 / s.overhead_bits as f64)
        ));
    }
    out
}

/// Writes `fig11.csv`/`fig12.csv`/`fig13.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csvs(results: &Variants, out_dir: &Path) -> io::Result<()> {
    let rows: Vec<Vec<String>> = results
        .summaries
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.overhead_bits.to_string(),
                format!("{:.3}", s.mean_faults_recovered),
                format!("{:.2}", (s.lifetime_improvement - 1.0) * 100.0),
                format!(
                    "{:.4}",
                    (s.lifetime_improvement - 1.0) * 100.0 / s.overhead_bits as f64
                ),
            ]
        })
        .collect();
    for fig in ["fig11", "fig12", "fig13"] {
        csvout::write_csv(
            out_dir.join(format!("{fig}.csv")),
            &[
                "scheme",
                "overhead_bits",
                "mean_recoverable_faults",
                "lifetime_improvement_pct",
                "improvement_pct_per_bit",
            ],
            &rows,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::montecarlo::FailureCriterion;

    #[test]
    fn rw_recovers_more_than_plain_aegis() {
        let results = run(&RunOptions {
            pages: 8,
            trials: 10,
            seed: 17,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        });
        // §3.3: Aegis-rw substantially increases recoverable faults over
        // Aegis on every formation.
        for (a, b) in schemes::variant_formations() {
            let plain = results
                .summaries
                .iter()
                .find(|s| s.name == format!("Aegis {a}x{b}"))
                .unwrap();
            let rw = results
                .summaries
                .iter()
                .find(|s| s.name == format!("Aegis-rw {a}x{b}"))
                .unwrap();
            assert!(
                rw.mean_faults_recovered > plain.mean_faults_recovered,
                "{a}x{b}: rw {} <= plain {}",
                rw.mean_faults_recovered,
                plain.mean_faults_recovered
            );
        }
    }

    #[test]
    fn reports_render_all_bars() {
        let results = run(&RunOptions {
            pages: 2,
            trials: 10,
            seed: 1,
            criterion: FailureCriterion::default(),
            page_bytes: 4096,
            threads: None,
        });
        let f11 = report_fig11(&results);
        for (a, b) in schemes::variant_formations() {
            assert!(f11.contains(&format!("Aegis {a}x{b}")), "{f11}");
            assert!(f11.contains(&format!("Aegis-rw {a}x{b}")), "{f11}");
            assert!(f11.contains(&format!("Aegis-rw-p {a}x{b}")), "{f11}");
        }
    }
}
