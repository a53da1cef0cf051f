//! F2: the crossover the paper's §3.2 story is about — FO rewriting answers
//! CQA in polynomial time on the inconsistent instance, while the
//! model-theoretic definition (enumerate all repairs, intersect) blows up
//! exponentially in the number of conflicts. The rewriting runs twice:
//! compiled to index probes (`KeyPlan`, what the planner runs) and
//! interpreted by the FO evaluator.

use cqa_bench::key_conflict_instance;
use cqa_core::rewrite::keys::{KeyPlan, KeyPositions};
use cqa_core::RepairClass;
use cqa_query::{parse_query, NullSemantics, UnionQuery};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let q = parse_query("Q(k, v) :- T(k, v)").unwrap();
    let keys: KeyPositions = [("T".to_string(), vec![0usize])].into();
    let fo = cqa_core::rewrite_key_query(&q, &keys).unwrap();
    let plan = KeyPlan::compile(&q, &keys).unwrap();

    let mut group = c.benchmark_group("f2_rewriting_vs_enumeration");
    // Scaling probes, not micro-benchmarks: few samples, short windows.
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for k in [2usize, 5, 8, 11] {
        let (db, sigma) = key_conflict_instance(300, k, 2, 2);
        let compiled = plan.certain_answers(&db).unwrap().answers;
        let ucq = UnionQuery::single(q.clone());
        assert_eq!(
            compiled,
            cqa_query::eval_fo(&db, &fo, NullSemantics::Structural),
            "compiled vs interpreted rewriting at k = {k}"
        );
        assert_eq!(
            compiled,
            cqa_core::consistent_answers(&db, &sigma, &ucq, &RepairClass::Subset).unwrap(),
            "compiled rewriting vs enumeration at k = {k}"
        );
        group.bench_with_input(BenchmarkId::new("compiled", k), &k, |b, _| {
            b.iter(|| plan.certain_answers(&db).unwrap().answers.len())
        });
        group.bench_with_input(BenchmarkId::new("fo_rewriting", k), &k, |b, _| {
            b.iter(|| cqa_query::eval_fo(&db, &fo, NullSemantics::Structural).len())
        });
        group.bench_with_input(BenchmarkId::new("repair_enumeration", k), &k, |b, _| {
            b.iter(|| {
                cqa_core::consistent_answers(&db, &sigma, &ucq, &RepairClass::Subset)
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
