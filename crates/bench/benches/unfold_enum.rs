//! Enumeration + SSG pre-filter wall-clock, isolated from the SMT
//! stage, on the two suite benchmarks with the largest k = 2 unfolding
//! spaces (Relatd: 22 155 per view, Super Chat): `full` streams every
//! unfolding through the SSG suspicion check.
//!
//! Record a baseline with `cargo bench --bench unfold_enum` and compare
//! runs against `BENCH_unfold.json` (see that file for the protocol).

use criterion::{criterion_group, criterion_main, Criterion};

use c4::unfold::{arena_for, unfoldings};
use c4::Ssg;
use c4_algebra::{FarSpec, RewriteSpec};

fn history(name: &str) -> c4::AbstractHistory {
    let b = c4_suite::benchmark(name).expect("benchmark exists");
    let p = c4_lang::parse(b.source).expect("parse");
    c4_lang::abstract_history(&p).expect("interp")
}

/// Streams the k = 2 enumeration through the SSG pre-filter; returns
/// (unfoldings, suspicious) so the optimizer cannot elide the work.
fn enum_and_filter(h: &c4::AbstractHistory) -> (usize, usize) {
    let far = FarSpec::compute(RewriteSpec::new(), &h.alphabet());
    let arena = arena_for(h);
    let tables = c4::ssg::PairTables::compute(arena.bodies(), &far);
    let mut total = 0usize;
    let mut suspicious = 0usize;
    for u in unfoldings(h, &arena, 2) {
        total += 1;
        let ssg = Ssg::of_unfolding(&u, &tables);
        if ssg.has_cycle() {
            suspicious += 1;
        }
    }
    (total, suspicious)
}

fn bench_unfold_enum(c: &mut Criterion) {
    for name in ["Relatd", "Super Chat"] {
        let h = history(name);
        let mut group = c.benchmark_group(format!("unfold_enum/{name}"));
        group.sample_size(10);
        group.bench_function("full", |bencher| bencher.iter(|| enum_and_filter(&h)));
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_unfold_enum
}
criterion_main!(benches);
