//! Cross-engine agreement tests: independent implementations of the same
//! semantics must coincide on randomized inputs. These complement
//! `property_invariants.rs` (data-structure laws) and
//! `asp_solver_reference.rs` (solver vs definition).

use cqa_exec::Budget;
use inconsistent_db::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------- FO vs CQ

fn arb_rs_db() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec((0i64..4, 0i64..4), 0..8),
        proptest::collection::vec(0i64..4, 0..5),
    )
        .prop_map(|(rs, ss)| {
            let mut db = Database::new();
            db.create_relation(RelationSchema::new("R", ["A", "B"]))
                .unwrap();
            db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
            for (a, b) in rs {
                db.insert("R", tuple![a, b]).unwrap();
            }
            for s in ss {
                db.insert("S", tuple![s]).unwrap();
            }
            db
        })
}

// ------------------------------------------- compiled key rewriting

/// `R(A, B)` and `S(A, B)` under keys `R[A]`, `S[A]`, values from
/// {0, 1, 2, 3, NULL} (drawn as 0..5, with 4 standing for the null).
fn key_value(v: i64) -> Value {
    if v == 4 {
        Value::NULL
    } else {
        Value::Int(v)
    }
}

fn arb_key_db() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec((0i64..5, 0i64..5), 0..7),
        proptest::collection::vec((0i64..5, 0i64..5), 0..7),
    )
        .prop_map(|(rs, ss)| {
            let mut db = Database::new();
            db.create_relation(RelationSchema::new("R", ["A", "B"]))
                .unwrap();
            db.create_relation(RelationSchema::new("S", ["A", "B"]))
                .unwrap();
            for (name, rows) in [("R", rs), ("S", ss)] {
                for (a, b) in rows {
                    db.insert(name, Tuple::new(vec![key_value(a), key_value(b)]))
                        .unwrap();
                }
            }
            db
        })
}

/// The rewritable queries the compiled plan is checked on. `Q(z) :- R(x,
/// y), S(y, z)` has a free variable only in its second atom (the
/// interpreter's domain-fallback shape); `Q(x) :- R(x, y), S(z, y)` leaves
/// the second step's key unbound.
const KEY_QUERIES: &[&str] = &[
    "Q(x, y) :- R(x, y)",
    "Q(x) :- R(x, y)",
    "Q(x) :- R(x, y), S(y, z)",
    "Q(z) :- R(x, y), S(y, z)",
    "Q(x, 7) :- R(x, y)",
    "Q(x) :- R(x, x)",
    "Q() :- R(x, '1')",
    "Q() :- R(x, 1)",
    "Q(x) :- R(x, y), S(z, y)",
];

/// The interpreted rewriting's answers with the head constants it leaves
/// out put back in place.
fn interpreted_key_answers(
    db: &Database,
    q: &ConjunctiveQuery,
    keys: &inconsistent_db::core::rewrite::keys::KeyPositions,
) -> BTreeSet<Tuple> {
    let fo = rewrite_key_query(q, keys).unwrap();
    eval_fo(db, &fo, NullSemantics::Structural)
        .into_iter()
        .map(|t| {
            let mut vars = t.iter();
            Tuple::new(q.head.iter().map(|term| match term.as_const() {
                Some(c) => c.clone(),
                None => vars.next().unwrap().clone(),
            }))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FO evaluator must agree with the CQ evaluator on CQ-shaped
    /// queries (existential-positive fragment).
    #[test]
    fn fo_eval_matches_cq_eval(db in arb_rs_db()) {
        for (cq_text, fo_text) in [
            ("Q(x) :- R(x, y)", "x : exists y (R(x, y))"),
            ("Q(x) :- R(x, y), S(y)", "x : exists y (R(x, y) & S(y))"),
            ("Q(x, y) :- R(x, y), x != y", "x, y : R(x, y) & x != y"),
            ("Q() :- S(x), R(x, y), S(y)", "exists x, y (S(x) & R(x, y) & S(y))"),
            ("Q(x) :- S(x), not R(x, x)", "x : S(x) & !R(x, x)"),
        ] {
            let cq = parse_query(cq_text).unwrap();
            let fo = parse_fo(fo_text).unwrap();
            let a = eval_cq(&db, &cq, NullSemantics::Structural);
            let b = eval_fo(&db, &fo, NullSemantics::Structural);
            prop_assert_eq!(a, b, "query: {}", cq_text);
        }
    }

    /// The compiled key rewriting (`KeyPlan`, planner rule 2) against the
    /// repair fold on instances with nulls, against the interpreted
    /// rewriting on null-free ones, and over a repair view against the
    /// view's materialization.
    #[test]
    fn compiled_key_rewriting_matches_reference(
        db in arb_key_db(),
        deleted in proptest::collection::vec(0u64..14, 0..4),
        inserted in proptest::collection::vec((0i64..5, 0i64..5), 0..3),
    ) {
        use inconsistent_db::core::rewrite::keys::{KeyPlan, KeyPositions};
        use inconsistent_db::core::{answer, Request};
        use inconsistent_db::relation::DeltaView;
        use std::sync::Arc;
        let sigma = ConstraintSet::from_iter([
            KeyConstraint::new("R", ["A"]),
            KeyConstraint::new("S", ["A"]),
        ]);
        let keys: KeyPositions =
            [("R".to_string(), vec![0]), ("S".to_string(), vec![0])].into();
        let null_free = db.relations().iter().all(|r| r.tuples().all(|t| !t.has_null()));
        let deleted: BTreeSet<Tid> = deleted.into_iter().map(Tid).collect();
        let deleted: BTreeSet<Tid> = deleted.intersection(&db.tids()).copied().collect();
        let inserted: Vec<(String, Tuple)> = inserted
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let name = if i % 2 == 0 { "R" } else { "S" };
                (name.to_string(), Tuple::new(vec![key_value(a), key_value(b)]))
            })
            .collect();
        let view = DeltaView::new(&db, &deleted, &inserted);
        let (materialized, _) = db.with_changes(&deleted, &inserted).unwrap();
        let shared = Arc::new(db.clone());
        for text in KEY_QUERIES {
            let cq = parse_query(text).unwrap();
            let q = UnionQuery::single(cq.clone());
            let routed = answer(&shared, &sigma, None, &Request::certain(&q), &Budget::unlimited())
                .unwrap()
                .into_value();
            let reference = consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
            prop_assert_eq!(&routed.answers, &reference, "query: {} on\n{}", text, db);
            let plan = KeyPlan::compile(&cq, &keys).unwrap();
            if null_free {
                let interpreted = interpreted_key_answers(&db, &cq, &keys);
                prop_assert_eq!(&reference, &interpreted, "query: {} on\n{}", text, db);
                prop_assert_eq!(
                    plan.certain_answers(&db).map(|run| run.answers),
                    Some(reference),
                    "query: {} on\n{}", text, db
                );
            }
            prop_assert_eq!(
                plan.certain_answers(&view).map(|run| run.answers),
                plan.certain_answers(&materialized).map(|run| run.answers),
                "query: {} over the view of\n{}", text, db
            );
        }
    }

    /// Datalog transitive closure must match a plain BFS reference.
    #[test]
    fn datalog_tc_matches_bfs(edges in proptest::collection::vec((0i64..6, 0i64..6), 0..12)) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Edge", ["From", "To"])).unwrap();
        for &(a, b) in &edges {
            db.insert("Edge", tuple![a, b]).unwrap();
        }
        let program = parse_program(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, z) :- Edge(x, y), Path(y, z).",
        )
        .unwrap();
        let out = program.evaluate(&db).unwrap();
        let datalog: BTreeSet<(i64, i64)> = out
            .relation("Path")
            .unwrap()
            .tuples()
            .map(|t| (t.at(0).as_i64().unwrap(), t.at(1).as_i64().unwrap()))
            .collect();
        // BFS reference.
        let mut reference: BTreeSet<(i64, i64)> = BTreeSet::new();
        let nodes: BTreeSet<i64> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        for &src in &nodes {
            let mut frontier = vec![src];
            let mut seen: BTreeSet<i64> = BTreeSet::new();
            while let Some(u) = frontier.pop() {
                for &(a, b) in &edges {
                    if a == u && seen.insert(b) {
                        frontier.push(b);
                    }
                }
            }
            for t in seen {
                reference.insert((src, t));
            }
        }
        prop_assert_eq!(datalog, reference);
    }

    /// The text codec round-trips arbitrary content.
    #[test]
    fn codec_roundtrip(
        rows in proptest::collection::vec(
            (any::<i16>(), "[a-z' ]{0,6}", any::<bool>(), 0u32..4),
            0..10,
        )
    ) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("M", ["I", "S", "B", "N"])).unwrap();
        for (i, s, b, n) in rows {
            db.insert(
                "M",
                Tuple::new(vec![
                    Value::Int(i as i64),
                    Value::str(&s),
                    Value::Bool(b),
                    Value::Null(n),
                ]),
            )
            .unwrap();
        }
        let text = inconsistent_db::relation::save(&db);
        let back = inconsistent_db::relation::load(&text).unwrap();
        prop_assert!(db.same_content(&back), "text:\n{}", text);
    }

    /// The cleaner always terminates and produces a clean instance on
    /// random FD-dirty data.
    #[test]
    fn cleaner_terminates_and_cleans(
        rows in proptest::collection::vec((0i64..4, 0i64..6), 1..12)
    ) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"])).unwrap();
        for (k, v) in rows {
            db.insert("T", tuple![k, v]).unwrap();
        }
        let spec = CleaningSpec::new()
            .with_fd(FunctionalDependency::new("T", ["K"], ["V"]));
        let result = clean(&db, &spec, &CostModel::uniform()).unwrap();
        prop_assert!(spec.is_clean(&result.db).unwrap());
        prop_assert!(result.total_cost >= 0.0);
    }

    /// Every update repair satisfies the FD, and possible answers over the
    /// update-repair class equal the union of group values.
    #[test]
    fn update_repairs_satisfy_fd(rows in proptest::collection::vec((0i64..3, 0i64..4), 1..9)) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"])).unwrap();
        for (k, v) in rows {
            db.insert("T", tuple![k, v]).unwrap();
        }
        let fd = FunctionalDependency::new("T", ["K"], ["V"]);
        for r in inconsistent_db::core::update_repairs(&db, &fd, Some(50)).unwrap() {
            prop_assert!(fd.is_satisfied(&r.db).unwrap());
            // Update repairs never delete keys.
            let keys_before: BTreeSet<Value> =
                db.relation("T").unwrap().tuples().map(|t| t.at(0).clone()).collect();
            let keys_after: BTreeSet<Value> =
                r.db.relation("T").unwrap().tuples().map(|t| t.at(0).clone()).collect();
            prop_assert_eq!(keys_before, keys_after);
        }
    }

    /// Numeric repairs achieve exactly the minimal L1 distance |excess|.
    #[test]
    fn numeric_repair_is_l1_minimal(
        amounts in proptest::collection::vec(0i64..1000, 1..8),
        bound in 0i64..3000,
    ) {
        use inconsistent_db::cleaning::{numeric_repair, NumericConstraint};
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("B", ["Amt"])).unwrap();
        for (i, a) in amounts.iter().enumerate() {
            // Offset by the row index so equal amounts stay distinct tuples
            // under set semantics.
            db.insert("B", tuple![*a + i as i64 * 10_000]).unwrap();
        }
        let total: i64 = db
            .relation("B")
            .unwrap()
            .tuples()
            .map(|t| t.at(0).as_i64().unwrap())
            .sum();
        let c = NumericConstraint::sum_at_most("B", "Amt", bound as f64);
        let r = numeric_repair(&db, &c).unwrap();
        let expected = (total - bound).max(0) as f64;
        prop_assert!((r.l1_distance - expected).abs() < 1e-6);
    }

    /// Incremental repairs equal full recomputation after an insert burst.
    #[test]
    fn incremental_equals_full(
        base in proptest::collection::vec((0i64..4, 0i64..4), 0..6),
        new in proptest::collection::vec((0i64..4, 0i64..4), 1..4),
    ) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"])).unwrap();
        // Make the base consistent: dedupe by key.
        let mut seen = BTreeSet::new();
        for (k, v) in base {
            if seen.insert(k) {
                db.insert("T", tuple![k, v]).unwrap();
            }
        }
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        let new_tuples: Vec<(String, Tuple)> =
            new.into_iter().map(|(k, v)| ("T".to_string(), tuple![k, v])).collect();
        let inc = inconsistent_db::core::repairs_after_insert(&db, &sigma, &new_tuples).unwrap();
        let full = s_repairs(&inc.updated, &sigma).unwrap();
        let a: BTreeSet<BTreeSet<Tid>> = inc.repairs.iter().map(|r| r.deleted.clone()).collect();
        let b: BTreeSet<BTreeSet<Tid>> = full.iter().map(|r| r.deleted.clone()).collect();
        prop_assert_eq!(a, b);
    }
}
