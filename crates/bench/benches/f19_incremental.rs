//! F19: delta-driven incremental maintenance vs recompute-from-scratch.
//!
//! The F18 workload (`Orders`/`Cities`, FD Cust → City at 1% dirty plus the
//! comparison denial Amount > 9900) is loaded once; each iteration then
//! performs a closed single-tuple cycle — insert one conflicting order,
//! bring the conflict state up to date, delete it, bring it up to date
//! again — so the instance returns to its starting point every iteration.
//! The `incremental` side maintains an [`IncrementalState`] through its
//! change-log delta path; the `recompute` side rebuilds violations, the
//! conflict hyper-graph and the component factorization from scratch.
//! Byte-identity of the two is asserted before any measurement; throughput
//! (updates/sec) is what the F19 harness section reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cqa_bench::{f18_columnar, f18_data};
use cqa_core::IncrementalState;
use cqa_relation::tuple;

fn bench_f19(c: &mut Criterion) {
    for n in [2_000usize, 8_000] {
        let data = f18_data(n, 19);
        let (mut db, sigma) = f18_columnar(&data);
        let mut state = IncrementalState::new(&db, &sigma).unwrap();
        let cust = data.orders[0].1.clone();
        let city = data.cities[1].0.clone();

        // Equality gate: one full cycle, maintained state checked against a
        // from-scratch build, before either side is timed.
        let t = db
            .insert(
                "Orders",
                tuple![9_000_000i64, cust.as_str(), city.as_str(), "late", 123],
            )
            .unwrap();
        state.refresh(&db, &sigma).unwrap();
        let scratch = IncrementalState::new(&db, &sigma).unwrap();
        assert!(state.graph() == scratch.graph(), "graphs diverged");
        assert_eq!(*state.components(), *scratch.components());
        db.delete(t).unwrap();
        state.refresh(&db, &sigma).unwrap();

        let mut group = c.benchmark_group("f19_single_update");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                let t = db
                    .insert(
                        "Orders",
                        tuple![9_000_000i64, cust.as_str(), city.as_str(), "late", 123],
                    )
                    .unwrap();
                state.refresh(&db, &sigma).unwrap();
                db.delete(t).unwrap();
                state.refresh(&db, &sigma).unwrap();
                state.graph().edge_count()
            })
        });
        group.bench_with_input(BenchmarkId::new("recompute", n), &n, |b, _| {
            b.iter(|| {
                let t = db
                    .insert(
                        "Orders",
                        tuple![9_000_000i64, cust.as_str(), city.as_str(), "late", 123],
                    )
                    .unwrap();
                let s1 = IncrementalState::new(&db, &sigma).unwrap();
                db.delete(t).unwrap();
                let s2 = IncrementalState::new(&db, &sigma).unwrap();
                s1.graph().edge_count() + s2.graph().edge_count()
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_f19);
criterion_main!(benches);
