//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * the SSG stage (pair-table SSG construction and candidate
//!   enumeration) on its own;
//! * the cost of the return-value justification axioms in the SMT stage;
//! * subsumption's effect on the number of SMT queries (measured through
//!   the full checker).

use criterion::{criterion_group, criterion_main, Criterion};

use c4::check::AnalysisFeatures;
use c4::ssg::{candidate_cycles, PairTables, Ssg};
use c4::unfold::{arena_for, unfoldings};
use c4_algebra::{FarSpec, RewriteSpec};

fn history(name: &str) -> c4::AbstractHistory {
    let b = c4_suite::benchmark(name).expect("benchmark exists");
    let p = c4_lang::parse(b.source).expect("parse");
    c4_lang::abstract_history(&p).expect("interp")
}

fn bench_pair_tables_ablation(c: &mut Criterion) {
    let h = history("Super Chat");
    let far = FarSpec::compute(RewriteSpec::new(), &h.alphabet());
    let arena = arena_for(&h);
    let tables = PairTables::compute(arena.bodies(), &far);
    let mut group = c.benchmark_group("ssg_stage_ablation");
    group.sample_size(10);
    group.bench_function("cached_tables", |b| {
        b.iter(|| {
            unfoldings(&h, &arena, 2)
                .map(|u| {
                    let ssg = Ssg::of_unfolding(&u, &tables);
                    candidate_cycles(&u, ssg, &tables).len()
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_justification_ablation(c: &mut Criterion) {
    let b = c4_suite::benchmark("Relatd").expect("benchmark exists");
    let p = c4_lang::parse(b.source).expect("parse");
    let h = c4_lang::abstract_history(&p).expect("interp");
    let mut group = c.benchmark_group("checker_ablation");
    group.sample_size(10);
    for (label, features) in [
        ("full", AnalysisFeatures::default()),
        (
            "no_ret_justification",
            AnalysisFeatures {
                ret_justification: false,
                max_k: 2,
                time_budget_secs: 60,
                ..AnalysisFeatures::default()
            },
        ),
        (
            "no_counterexample_validation",
            AnalysisFeatures {
                validate_counterexamples: false,
                ..AnalysisFeatures::default()
            },
        ),
    ] {
        group.bench_function(label, |bencher| {
            bencher.iter(|| {
                c4::Checker::new(h.clone(), features.clone()).run().violations.len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pair_tables_ablation, bench_justification_ablation
}
criterion_main!(benches);
