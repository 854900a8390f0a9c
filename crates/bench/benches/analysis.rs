//! Micro-benchmarks of the analysis components: far-relation computation,
//! SSG construction over unfoldings, a single SMT cycle query, concrete
//! DSG construction, and the causal simulator.

use criterion::{criterion_group, criterion_main, Criterion};

use c4::abstract_history::{ev, straight_line_tx, AbsArg, AbstractHistory};
use c4::check::AnalysisFeatures;
use c4::encode::CycleEncoder;
use c4::ssg::{candidate_cycles, PairTables, Ssg};
use c4::unfold::{arena_for, unfoldings};
use c4_algebra::{Alphabet, FarSpec, OpSig, RewriteSpec};
use c4_dsg::{DepOptions, Dsg};
use c4_store::op::OpKind;
use c4_store::sim::CausalSim;
use c4_store::Value;

fn figure1a() -> AbstractHistory {
    let mut h = AbstractHistory::new();
    h.add_tx(straight_line_tx(
        "P",
        vec!["x".into(), "y".into()],
        vec![ev("M", OpKind::MapPut, vec![AbsArg::Param(0), AbsArg::Param(1)])],
    ));
    h.add_tx(straight_line_tx(
        "G",
        vec!["z".into()],
        vec![ev("M", OpKind::MapGet, vec![AbsArg::Param(0)])],
    ));
    h.free_session_order();
    h
}

fn suite_history(name: &str) -> AbstractHistory {
    let b = c4_suite::benchmark(name).expect("benchmark exists");
    let p = c4_lang::parse(b.source).expect("parse");
    c4_lang::abstract_history(&p).expect("interp")
}

fn bench_far(c: &mut Criterion) {
    let h = suite_history("Sky Locale");
    let alphabet: Alphabet = h.alphabet();
    c.bench_function("far_spec_compute/sky_locale", |b| {
        b.iter(|| FarSpec::compute(RewriteSpec::new(), &alphabet))
    });
}

fn bench_ssg(c: &mut Criterion) {
    let h = suite_history("Super Chat");
    let far = FarSpec::compute(RewriteSpec::new(), &h.alphabet());
    let arena = arena_for(&h);
    let tables = PairTables::compute(arena.bodies(), &far);
    c.bench_function("pair_tables/super_chat", |b| {
        b.iter(|| PairTables::compute(arena.bodies(), &far))
    });
    c.bench_function("ssg_over_2_unfoldings/super_chat", |b| {
        b.iter(|| {
            unfoldings(&h, &arena, 2)
                .map(|u| Ssg::of_unfolding(&u, &tables).edges().len())
                .sum::<usize>()
        })
    });
}

fn bench_smt_query(c: &mut Criterion) {
    let h = figure1a();
    let far = FarSpec::compute(RewriteSpec::new(), &h.alphabet());
    let arena = arena_for(&h);
    let tables = PairTables::compute(arena.bodies(), &far);
    let features = AnalysisFeatures::default();
    // Pick one suspicious unfolding and candidate.
    let (u, cand) = unfoldings(&h, &arena, 2)
        .find_map(|u| {
            let ssg = Ssg::of_unfolding(&u, &tables);
            let first = candidate_cycles(&u, ssg, &tables).cycles().next();
            first.map(|c| (u.clone(), c))
        })
        .expect("figure 1a has candidates");
    c.bench_function("smt_cycle_query/figure1a", |b| {
        b.iter(|| {
            let mut enc = CycleEncoder::new(&u, &far, &features);
            enc.check(&cand).is_some()
        })
    });
}

fn bench_full_check(c: &mut Criterion) {
    let h = figure1a();
    c.bench_function("algorithm1_check/figure1a", |b| {
        b.iter(|| c4::Checker::new(h.clone(), AnalysisFeatures::default()).run().violations.len())
    });
}

fn bench_thread_scaling(c: &mut Criterion) {
    let h = suite_history("Super Chat");
    let mut g = c.benchmark_group("algorithm1_threads/super_chat");
    g.sample_size(10);
    for threads in [1usize, 4] {
        let features = AnalysisFeatures { parallelism: threads, ..AnalysisFeatures::default() };
        g.bench_function(&format!("{threads}"), |b| {
            b.iter(|| c4::Checker::new(h.clone(), features.clone()).run().violations.len())
        });
    }
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("causal_sim/100_txns_3_replicas", |b| {
        b.iter(|| {
            let mut sim = CausalSim::new(3);
            let ss: Vec<_> = (0..3).map(|r| sim.session(r)).collect();
            for i in 0..100 {
                let s = ss[i % 3];
                sim.begin(s);
                sim.update(s, "M", OpKind::MapPut, vec![Value::int((i % 5) as i64), Value::int(i as i64)]);
                let _ = sim.query(s, "M", OpKind::MapGet, vec![Value::int(((i + 1) % 5) as i64)]);
                sim.commit(s);
                if i % 4 == 0 {
                    for d in sim.deliverable() {
                        sim.deliver(d);
                    }
                }
            }
            sim.deliver_all();
            sim.into_history().0.len()
        })
    });
}

fn bench_concrete_dsg(c: &mut Criterion) {
    let mut sim = CausalSim::new(3);
    let ss: Vec<_> = (0..3).map(|r| sim.session(r)).collect();
    for i in 0..60 {
        let s = ss[i % 3];
        sim.begin(s);
        sim.update(s, "M", OpKind::MapPut, vec![Value::int((i % 4) as i64), Value::int(i as i64)]);
        let _ = sim.query(s, "M", OpKind::MapGet, vec![Value::int(((i + 1) % 4) as i64)]);
        sim.commit(s);
    }
    sim.deliver_all();
    let (h, sched) = sim.into_history();
    let alphabet: Alphabet = h.events().map(|e| OpSig::of(&e.op)).collect();
    let far = FarSpec::compute(RewriteSpec::new(), &alphabet);
    c.bench_function("concrete_dsg/120_events", |b| {
        b.iter(|| Dsg::build(&h, &sched, &far, &DepOptions::default()).edges().len())
    });
}

criterion_group!(
    benches,
    bench_far,
    bench_ssg,
    bench_smt_query,
    bench_full_check,
    bench_thread_scaling,
    bench_simulator,
    bench_concrete_dsg
);
criterion_main!(benches);
