//! Benchmarks the Figure 5/6/7 pipeline (chip-level Monte Carlo for every
//! scheme) and the per-scheme predicate throughput that dominates it.

use aegis_bench::{bench_options, random_split};
use aegis_experiments::campaign::Campaign;
use aegis_experiments::runner::RunObserver;
use aegis_experiments::schemes;
use pcm_sim::Fault;
use sim_rng::bench::Bench;
use sim_rng::{bench_group, bench_main};
use std::hint::black_box;

fn bench_fig567_pipeline(c: &mut Bench) {
    let opts = bench_options();
    let mut group = c.benchmark_group("fig567_pipeline");
    group.sample_size(10);
    group.bench_function("both_block_sizes_2_pages", |b| {
        b.iter(|| {
            let opts = black_box(&opts);
            let specs = Campaign::Fig567.specs(opts, false);
            black_box(Campaign::Fig567.run(&specs, 0..opts.pages, &RunObserver::default(), None))
        });
    });
    group.finish();
}

fn bench_predicates(c: &mut Bench) {
    // The Monte Carlo inner loop: recoverability of a 20-fault population.
    let faults: Vec<Fault> = (0..20)
        .map(|i| Fault::new(i * 23 % 512, i % 3 == 0))
        .collect();
    let wrong = random_split(faults.len(), 5);
    let mut group = c.benchmark_group("predicate_20_faults_512");
    for policy in schemes::fig5_schemes(512) {
        group.bench_function(policy.name(), |b| {
            b.iter(|| black_box(policy.recoverable(black_box(&faults), black_box(&wrong))));
        });
    }
    group.finish();
}

bench_group!(benches, bench_fig567_pipeline, bench_predicates);
bench_main!(benches);
