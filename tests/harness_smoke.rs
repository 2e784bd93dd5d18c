//! Smoke tests of the experiment harness at miniature scale: determinism,
//! CSV emission, and the paper's headline orderings.

use aegis_experiments::campaign::Campaign;
use aegis_experiments::fig567::{self, Fig567};
use aegis_experiments::fig8::{self, Fig8};
use aegis_experiments::runner::{RunObserver, RunOptions};
use aegis_experiments::{failcdf, fig10, fig9, table1, variants};
use pcm_sim::montecarlo::FailureCriterion;

/// The fig5/6/7 campaign through the executor.
fn fig567_run(opts: &RunOptions) -> Fig567 {
    let specs = Campaign::Fig567.specs(opts, false);
    let units = Campaign::Fig567
        .run(&specs, 0..opts.pages, &RunObserver::default(), None)
        .expect("no checkpoint, no I/O")
        .expect("no checkpoint, no stop");
    fig567::assemble(&specs, &units)
}

/// The fig8 campaign through the executor.
fn fig8_run(opts: &RunOptions) -> Fig8 {
    let specs = Campaign::Fig8.specs(opts, false);
    let units = Campaign::Fig8
        .run(&specs, 0..opts.pages, &RunObserver::default(), None)
        .expect("no checkpoint, no I/O")
        .expect("no checkpoint, no stop");
    fig8::assemble(&units.into_iter().map(|unit| unit.run).collect::<Vec<_>>())
}

fn tiny() -> RunOptions {
    RunOptions {
        pages: 6,
        trials: 150,
        seed: 2013,
        criterion: FailureCriterion::default(),
        page_bytes: 4096,
        threads: None,
    }
}

#[test]
fn table1_reproduces_all_printed_values_except_documented_rw_cells() {
    let table = table1::run(512);
    let notes = table1::diff_against_paper(&table);
    assert_eq!(notes.len(), 2, "{notes:?}");
}

#[test]
fn fig5_headline_orderings_hold_even_at_tiny_scale() {
    let results = fig567_run(&tiny());
    let (_, summaries) = &results.by_block[1]; // 512-bit
    let get = |name: &str| {
        summaries
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    // The paper's central claim: Aegis 9x61 tolerates far more faults than
    // SAFER64 at well under half the overhead bits.
    let aegis = get("Aegis 9x61");
    let safer = get("SAFER64");
    assert!(aegis.mean_faults_recovered > 1.5 * safer.mean_faults_recovered);
    assert!(aegis.overhead_bits < safer.overhead_bits);
    // Every inversion-based scheme beats the pointer-based ECP on faults.
    let ecp = get("ECP6");
    for name in ["SAFER32", "SAFER64", "Aegis 23x23", "RDIS-3"] {
        assert!(
            get(name).mean_faults_recovered > ecp.mean_faults_recovered,
            "{name} should beat ECP6"
        );
    }
    // Within Aegis, more slopes means more tolerated faults.
    assert!(get("Aegis 9x61").mean_faults_recovered > get("Aegis 17x31").mean_faults_recovered);
    assert!(get("Aegis 17x31").mean_faults_recovered > get("Aegis 23x23").mean_faults_recovered);
}

#[test]
fn failcdf_hard_ftc_boundaries_are_exact() {
    let results = failcdf::run(&tiny());
    let get = |name: &str| results.iter().find(|s| s.name == name).unwrap();
    // ECP6: a step function at 6 faults.
    let ecp = get("ECP6").cdf.clone();
    assert_eq!(ecp[6], 0.0);
    assert_eq!(ecp[7], 1.0);
    // Aegis 9x61 guarantees 11 faults (C(11,2)+1 = 56 <= 61).
    let aegis = get("Aegis 9x61").cdf.clone();
    assert_eq!(aegis[11], 0.0, "hard FTC violated");
    assert!(
        aegis[40] > 0.9,
        "soft capability should be exhausted by 40 faults"
    );
    // The cache makes SAFER strictly better, pointwise.
    let plain = get("SAFER64").cdf.clone();
    let cached = get("SAFER64-cache").cdf.clone();
    for (f, (p, c)) in plain.iter().zip(&cached).enumerate() {
        assert!(c <= p, "cache hurt SAFER64 at {f} faults");
    }
}

#[test]
fn fig8_sweep_orders_masking_against_the_pointer_schemes() {
    let results = fig8_run(&tiny());
    let classic = &results.by_fraction[0];
    assert_eq!(classic.0, 0);
    let get = |name: &str| {
        classic
            .1
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    // Mask6 guarantees any 12 faults on 60 bits; ECP6 guarantees 6 on 61.
    assert!(get("Mask6").mean_faults_recovered > get("ECP6").mean_faults_recovered);
    assert!(get("Mask6").overhead_bits < get("ECP6").overhead_bits);
    // The pointer budget never hurts: PLC4+2 accepts a superset of Mask4.
    assert!(get("PLC4+2").mean_faults_recovered >= get("Mask4").mean_faults_recovered);
}

#[test]
fn fig9_half_lifetimes_follow_fault_tolerance() {
    let results = fig9::run(&tiny());
    let get = |name: &str| {
        results
            .iter()
            .find(|s| s.name == name)
            .unwrap()
            .half_lifetime
    };
    assert!(get("Aegis 9x61") > get("ECP6"));
    assert!(get("ECP6") > get("unprotected"));
}

#[test]
fn fig10_pointer_sweep_shapes() {
    let results = fig10::run(&tiny());
    for sweep in &results {
        // Monotone non-decreasing within noise: compare first and last.
        let first = sweep.series.first().unwrap().1;
        let last = sweep.series.last().unwrap().1;
        assert!(last >= first, "{}", sweep.formation);
        // The plateau equals the Aegis-rw capability: the final two points
        // should be close (within 5%).
        let prev = sweep.series[sweep.series.len() - 2].1;
        assert!(
            (last - prev).abs() / last < 0.05,
            "{} has no plateau",
            sweep.formation
        );
    }
}

#[test]
fn variants_report_paper_section_3_3_effects() {
    let results = variants::run(&tiny());
    let get = |name: &str| {
        results
            .summaries
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    // Aegis-rw boosts recoverable faults on every formation (§3.3 quotes
    // +52%/41%/33%/28%); allow wide slack at tiny scale.
    for (a, b) in aegis_experiments::schemes::variant_formations() {
        let plain = get(&format!("Aegis {a}x{b}")).mean_faults_recovered;
        let rw = get(&format!("Aegis-rw {a}x{b}")).mean_faults_recovered;
        assert!(rw > 1.1 * plain, "{a}x{b}: rw {rw} vs plain {plain}");
    }
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let a = fig567_run(&tiny());
    let b = fig567_run(&tiny());
    for ((bits_a, sa), (bits_b, sb)) in a.by_block.iter().zip(&b.by_block) {
        assert_eq!(bits_a, bits_b);
        for (x, y) in sa.iter().zip(sb) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.mean_faults_recovered, y.mean_faults_recovered);
            assert_eq!(x.half_lifetime, y.half_lifetime);
        }
    }
}

#[test]
fn csv_files_are_written() {
    let dir = std::env::temp_dir().join("aegis-harness-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = tiny();
    let t = table1::run(512);
    table1::write_csv(&t, &dir).unwrap();
    let f = fig567_run(&opts);
    fig567::write_csvs(&f, &dir).unwrap();
    let v = variants::run(&opts);
    variants::write_csvs(&v, &dir).unwrap();
    for file in [
        "table1.csv",
        "fig5.csv",
        "fig6.csv",
        "fig7.csv",
        "fig11.csv",
        "fig13.csv",
    ] {
        let path = dir.join(file);
        let content =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file} missing: {e}"));
        assert!(content.lines().count() > 1, "{file} has no data rows");
    }
    let _ = std::fs::remove_dir_all(dir);
}
