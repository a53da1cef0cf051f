//! A ConsEx-style consistency extractor (§3.3 of the paper, \[43\]): the
//! one CQA route. [`answer`] takes a [`Request`] — a query, the answers
//! wanted ([`AnswerKind`]) and a [`RepairClass`] — and picks the cheapest
//! sound-and-complete strategy from one decision table:
//!
//! 1. **direct evaluation** when the instance is consistent, for every kind
//!    and class — a consistent instance is its own only repair;
//! 2. **FO rewriting** (attack graph) for certain answers over S-repairs
//!    when Σ is a set of primary keys and the query is a self-join-free CQ
//!    with an acyclic attack graph — compiled to index probes
//!    ([`KeyPlan`]) and evaluated directly on the inconsistent instance, no
//!    repairs. It declines, with a reason, when it reads a null;
//! 3. **factored enumeration** for denial-class Σ with at least two
//!    conflict components (any class but attribute-null), in the requested
//!    kind;
//! 4. **repair enumeration** otherwise: the monolithic reference fold.
//!
//! The chosen strategy is reported so callers can log/inspect it, mirroring
//! how ConsEx surfaced its magic-set rewriting decisions.

use crate::cqa::{
    consistent_answers_budgeted, factored_with, possible_answers_budgeted, AnswerKind, RepairClass,
};
use crate::delta::IncrementalState;
use crate::factored::Factorization;
use crate::rewrite::keys::{KeyPlan, KeyPositions, KeyRewriteError};
use cqa_analysis::{lint_constraints, lint_query, DiagCode, Diagnostic};
use cqa_constraints::{Constraint, ConstraintSet};
use cqa_exec::{Budget, Outcome};
use cqa_query::{NullSemantics, UnionQuery};
use cqa_relation::{Database, RelationError, Tuple};
use std::collections::BTreeSet;
use std::sync::Arc;

/// How the planner answered the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Evaluated a certain FO rewriting on the inconsistent instance.
    FoRewriting,
    /// Enumerated repairs and folded answers over them.
    RepairEnumeration {
        /// Why rewriting was not used.
        reason: String,
    },
    /// Enumerated repairs **per conflict component** and folded
    /// component-locally (or over the lazy cross-product when a query
    /// witness spans components) — never materializing the product.
    FactoredEnumeration {
        /// Why rewriting was not used.
        reason: String,
        /// The factorization shape (component count, product size avoided…).
        factorization: Factorization,
    },
    /// The instance was consistent: plain evaluation.
    DirectEvaluation,
}

/// The planner's result.
#[derive(Debug, Clone)]
pub struct PlannedAnswer {
    /// The certain (or possible, as requested) answers.
    pub answers: BTreeSet<Tuple>,
    /// The strategy used.
    pub strategy: Strategy,
    /// Static-analysis findings for Σ and the query (strategy-independent;
    /// see `cqa-analysis` for the code catalog).
    pub diagnostics: Vec<Diagnostic>,
}

/// One CQA question: the answers of `kind` to `query` over `class`.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// The query.
    pub query: &'a UnionQuery,
    /// Certain or possible answers.
    pub kind: AnswerKind,
    /// The repair class quantified over.
    pub class: RepairClass,
}

impl<'a> Request<'a> {
    /// Certain answers over S-repairs — the default question.
    pub fn certain(query: &'a UnionQuery) -> Request<'a> {
        Request {
            query,
            kind: AnswerKind::Certain,
            class: RepairClass::Subset,
        }
    }
}

/// Lint Σ (against the live schemas) and every disjunct of the query.
pub fn plan_diagnostics(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
) -> Vec<Diagnostic> {
    let mut out = lint_constraints(sigma, Some(db));
    for cq in &query.disjuncts {
        out.extend(lint_query(cq));
    }
    out
}

/// Extract the key positions from Σ if Σ consists solely of key constraints
/// (at most one per relation).
fn keys_only(db: &Database, sigma: &ConstraintSet) -> Option<KeyPositions> {
    let mut keys = KeyPositions::new();
    for c in &sigma.constraints {
        let Constraint::Key(k) = c else {
            return None;
        };
        let schema = db.relation(&k.relation)?.schema().clone();
        let positions = schema.positions_of(k.key.iter().map(String::as_str)).ok()?;
        if keys.insert(k.relation.clone(), positions).is_some() {
            return None; // two keys on one relation: out of the dichotomy
        }
    }
    Some(keys)
}

/// Answer `request` with the best available strategy — the one CQA route
/// (see the module docs for the decision table).
///
/// A `warm` [`IncrementalState`] current at `db.epoch()` settles
/// consistency and feeds the factored fold its maintained hyper-graph
/// instead of a rebuilt one; a state at any other epoch is ignored and the
/// call takes the cold route. The state is only read — keeping it current
/// is the writer's job. Answers are identical to the cold route on the
/// same instance — only the work to get there changes.
///
/// Direct evaluation and FO rewriting are polynomial and always produce an
/// [`Outcome::Exact`] answer — a budget never degrades them. Only the
/// enumeration strategies are metered; on truncation they report the
/// sound approximation documented on
/// [`consistent_answers_budgeted`] (certain: a subset) and
/// [`possible_answers_budgeted`] (possible: a superset where one exists).
pub fn answer(
    base: &Arc<Database>,
    sigma: &ConstraintSet,
    warm: Option<&IncrementalState>,
    request: &Request<'_>,
    budget: &Budget,
) -> Result<Outcome<PlannedAnswer>, RelationError> {
    let db: &Database = base;
    let query = request.query;
    let mut diagnostics = plan_diagnostics(db, sigma, query);
    // A stale state is never trusted. Σ is denial-class whenever a state
    // exists (IncrementalState::new enforces it), so the instance is
    // consistent exactly when the maintained graph is edgeless.
    let warm = warm.filter(|state| state.epoch() == db.epoch());
    let consistent = match warm {
        Some(state) => state.is_consistent(),
        None => sigma.is_satisfied(db)?,
    };

    // Rule 1. Consistent instance: every answer is the plain answer.
    if consistent {
        return Ok(Outcome::Exact(PlannedAnswer {
            answers: cqa_query::eval_ucq(db, query, NullSemantics::Sql)
                .into_iter()
                .filter(|t| !t.has_null())
                .collect(),
            strategy: Strategy::DirectEvaluation,
            diagnostics,
        }));
    }

    // Rule 2. Rewriting path: certain answers over S-repairs, keys-only Σ,
    // single self-join-free CQ. Otherwise, say why not.
    let reason = match (request.kind, request.class, keys_only(db, sigma)) {
        (AnswerKind::Possible, ..) => "possible answers are folded over the repair family".into(),
        (AnswerKind::Certain, RepairClass::Subset, Some(keys)) => match &query.disjuncts[..] {
            [cq] => match KeyPlan::compile(cq, &keys) {
                Ok(plan) => match plan.certain_answers(db) {
                    Some(run) => {
                        return Ok(Outcome::Exact(PlannedAnswer {
                            answers: run.answers,
                            strategy: Strategy::FoRewriting,
                            diagnostics,
                        }));
                    }
                    None => "the rewriting read a null; nulls never join under SQL \
                             semantics, which the repair fold applies"
                        .into(),
                },
                Err(KeyRewriteError::CyclicAttackGraph { witness }) => format!(
                    "attack graph cyclic at atoms {} and {}: CQA is coNP-complete",
                    witness.0, witness.1
                ),
                Err(e) => e.to_string(),
            },
            _ => "query is a union, not a single CQ".into(),
        },
        (AnswerKind::Certain, RepairClass::Subset, None) => non_key_reason(&diagnostics),
        (AnswerKind::Certain, class, _) => {
            format!("the FO rewriting covers S-repairs only, not the {class:?} class")
        }
    };

    // Both enumeration strategies quantify the query over a repair family;
    // the subplan cache shares per-view answer sets across that fold.
    // Snapshot the counters here so A008 reports this fold's delta.
    let cache_on = cqa_exec::plan_cache_enabled();
    let cache_before = cqa_query::plan_cache_stats();
    let reason = if cache_on {
        format!("{reason}; repair-family subplan sharing on")
    } else {
        reason
    };
    // Rule 3. With ≥ 2 conflict components the repair family is a
    // cross-product of independent per-component families, so enumeration
    // and the fold run per component (see `cqa-core::factored`).
    // Single-component instances keep the monolithic path — the
    // factorization would be the identity.
    if sigma.is_denial_class() && request.class != RepairClass::AttributeNull {
        let owned;
        let graph = match warm {
            Some(state) => state.graph(),
            None => {
                owned = sigma.conflict_hypergraph(db)?;
                &owned
            }
        };
        if graph.components().components.len() >= 2 {
            let out = factored_with(base, graph, query, request.class, request.kind, budget)?;
            return Ok(out.map(|(answers, factorization)| {
                diagnostics.push(factorization_diagnostic(&factorization));
                diagnostics.push(plan_cache_diagnostic(cache_on, &cache_before));
                PlannedAnswer {
                    answers,
                    strategy: Strategy::FactoredEnumeration {
                        reason,
                        factorization,
                    },
                    diagnostics,
                }
            }));
        }
    }
    // Rule 4. The monolithic reference fold.
    let answers = match request.kind {
        AnswerKind::Certain => consistent_answers_budgeted,
        AnswerKind::Possible => possible_answers_budgeted,
    }(db, sigma, query, &request.class, budget)?;
    Ok(answers.map(|answers| {
        diagnostics.push(plan_cache_diagnostic(cache_on, &cache_before));
        PlannedAnswer {
            answers,
            strategy: Strategy::RepairEnumeration { reason },
            diagnostics,
        }
    }))
}

/// Why a non-key Σ rules out rewriting, in terms of what the lints
/// recognized.
fn non_key_reason(diagnostics: &[Diagnostic]) -> String {
    let mut reason = "Σ is not a set of primary keys".to_string();
    if diagnostics.iter().any(|d| d.code == DiagCode::FdIsKey) {
        reason.push_str(
            "; some FDs cover their whole schema (C004 fd-is-key): \
             declaring them as keys would open the FO-rewriting path",
        );
    }
    if diagnostics
        .iter()
        .any(|d| d.code == DiagCode::SubsumedConstraint || d.code == DiagCode::DuplicateConstraint)
    {
        reason.push_str("; Σ contains redundant constraints (C001/C003)");
    }
    reason
}

/// The A008 informational finding describing how the subplan cache behaved
/// during the repair fold (hits/misses accrued between the pre-fold
/// snapshot and now; counters are process-wide, so concurrent folds may
/// contribute).
fn plan_cache_diagnostic(enabled: bool, before: &cqa_query::PlanCacheStats) -> Diagnostic {
    let message = if enabled {
        let after = cqa_query::plan_cache_stats();
        format!(
            "subplan cache over the repair fold: {} hits, {} misses, {} resident entries",
            after.hits.saturating_sub(before.hits),
            after.misses.saturating_sub(before.misses),
            after.entries,
        )
    } else {
        "subplan sharing disabled for this run: every repair re-evaluated the query".to_string()
    };
    Diagnostic::new(DiagCode::PlanCache, message)
}

/// The A006 informational finding describing a factorized run.
fn factorization_diagnostic(f: &Factorization) -> Diagnostic {
    let product = match f.product_repairs {
        Some(p) => p.to_string(),
        None => "> usize::MAX".to_string(),
    };
    Diagnostic::new(
        DiagCode::ConflictComponents,
        format!(
            "conflict hyper-graph has {} independent components (largest: {} tuples): \
             folded {} component-local repairs instead of a product of {}{}",
            f.components,
            f.largest,
            f.factored_repairs,
            product,
            if f.spanning {
                "; a query witness spans components, so answers were folded \
                 over the lazy cross-product"
            } else {
                ""
            },
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::answer_consistently_budgeted;
    use cqa_constraints::{DenialConstraint, KeyConstraint};
    use cqa_query::parse_query;
    use cqa_relation::{tuple, RelationSchema, Value};

    fn employee() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Employee", ["Name"])]);
        (db, sigma)
    }

    /// Certain answers over S-repairs, cold and unbudgeted.
    fn planned(db: &Database, sigma: &ConstraintSet, q: &UnionQuery) -> PlannedAnswer {
        answer_consistently_budgeted(db, sigma, q, &Budget::unlimited())
            .unwrap()
            .into_value()
    }

    #[test]
    fn rewritable_query_uses_rewriting() {
        let (db, sigma) = employee();
        let q = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let planned = planned(&db, &sigma, &q);
        assert_eq!(planned.strategy, Strategy::FoRewriting);
        assert_eq!(planned.answers, [tuple!["smith", 3000]].into());
        // And it agrees with the reference semantics.
        let reference =
            crate::cqa::consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        assert_eq!(planned.answers, reference);
    }

    /// Rule 2 used to project on the head variables only, dropping the
    /// head constants.
    #[test]
    fn rewriting_keeps_head_constants() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        db.insert("T", tuple![1, 10]).unwrap();
        db.insert("T", tuple![2, 20]).unwrap();
        db.insert("T", tuple![2, 21]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        for (text, expected) in [
            ("Q(x, 7) :- T(x, y)", vec![tuple![1, 7], tuple![2, 7]]),
            ("Q(7) :- T(x, y)", vec![tuple![7]]),
        ] {
            let q = UnionQuery::single(parse_query(text).unwrap());
            let planned = planned(&db, &sigma, &q);
            assert_eq!(planned.strategy, Strategy::FoRewriting, "{text}");
            let expected: BTreeSet<Tuple> = expected.into_iter().collect();
            assert_eq!(planned.answers, expected, "{text}");
            let reference =
                crate::cqa::consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
            assert_eq!(planned.answers, reference, "{text}");
        }
    }

    /// Rule 2 used to join nulls as plain constants, while the reference
    /// gives them SQL semantics. Requests that read a null now fall through
    /// to the folds, with a reason.
    #[test]
    fn rewriting_declines_nulls_and_matches_the_reference() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A", "B"]))
            .unwrap();
        db.insert("T", Tuple::new(vec![Value::int(1), Value::NULL]))
            .unwrap();
        db.insert("T", tuple![2, 5]).unwrap();
        db.insert("T", tuple![2, 6]).unwrap();
        db.insert("S", Tuple::new(vec![Value::NULL, Value::int(3)]))
            .unwrap();
        let sigma = ConstraintSet::from_iter([
            KeyConstraint::new("T", ["K"]),
            KeyConstraint::new("S", ["A"]),
        ]);
        for text in ["Q(k, v) :- T(k, v)", "Q(k) :- T(k, v), S(v, w)"] {
            let q = UnionQuery::single(parse_query(text).unwrap());
            let planned = planned(&db, &sigma, &q);
            match &planned.strategy {
                Strategy::RepairEnumeration { reason } => {
                    assert!(reason.contains("null"), "{text}: {reason}")
                }
                other => panic!("{text}: expected the fold, got {other:?}"),
            }
            assert!(planned.answers.is_empty(), "{text}");
            let reference =
                crate::cqa::consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
            assert_eq!(planned.answers, reference, "{text}");
        }
        // A request that reads no null keeps the rewriting.
        let q = UnionQuery::single(parse_query("Q(v) :- T(2, v)").unwrap());
        assert_eq!(planned(&db, &sigma, &q).strategy, Strategy::FoRewriting);
    }

    #[test]
    fn cyclic_query_falls_back() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A", "B"]))
            .unwrap();
        db.insert("R", tuple![1, 2]).unwrap();
        db.insert("R", tuple![1, 3]).unwrap();
        db.insert("S", tuple![2, 1]).unwrap();
        let sigma = ConstraintSet::from_iter([
            KeyConstraint::new("R", ["A"]),
            KeyConstraint::new("S", ["A"]),
        ]);
        let q = UnionQuery::single(parse_query("Q() :- R(x, y), S(y, x)").unwrap());
        let planned = planned(&db, &sigma, &q);
        match &planned.strategy {
            Strategy::RepairEnumeration { reason } => {
                assert!(reason.contains("coNP"), "reason: {reason}");
            }
            other => panic!("expected fallback, got {other:?}"),
        }
    }

    #[test]
    fn non_key_constraints_fall_back() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        db.insert("S", tuple!["a"]).unwrap();
        db.insert("S", tuple!["b"]).unwrap();
        let sigma =
            ConstraintSet::from_iter([DenialConstraint::parse("d", "S(x), S(y), x != y").unwrap()]);
        let q = UnionQuery::single(parse_query("Q(x) :- S(x)").unwrap());
        let planned = planned(&db, &sigma, &q);
        assert!(matches!(
            planned.strategy,
            Strategy::RepairEnumeration { .. }
        ));
        assert!(planned.answers.is_empty()); // each singleton repair differs
    }

    #[test]
    fn consistent_instance_short_circuits() {
        let (mut db, sigma) = employee();
        db.delete(cqa_relation::Tid(2)).unwrap();
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let planned = planned(&db, &sigma, &q);
        assert_eq!(planned.strategy, Strategy::DirectEvaluation);
        assert_eq!(planned.answers.len(), 2);
    }

    #[test]
    fn fd_covering_schema_enriches_the_reason() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        // The same key, but declared as an FD: outside the keys-only fast
        // path, yet the analysis recognizes it (C004).
        let fd = cqa_constraints::FunctionalDependency::new("Employee", ["Name"], ["Salary"]);
        let sigma = ConstraintSet::from_iter([fd]);
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let planned = planned(&db, &sigma, &q);
        match &planned.strategy {
            Strategy::RepairEnumeration { reason } => {
                assert!(reason.contains("fd-is-key"), "reason: {reason}");
            }
            other => panic!("expected fallback, got {other:?}"),
        }
        assert!(planned
            .diagnostics
            .iter()
            .any(|d| d.code == cqa_analysis::DiagCode::FdIsKey));
    }

    #[test]
    fn planner_reports_query_lints() {
        let (db, sigma) = employee();
        let q = UnionQuery::single(parse_query("Q() :- Employee(x, y), Employee(u, w)").unwrap());
        let planned = planned(&db, &sigma, &q);
        assert!(planned
            .diagnostics
            .iter()
            .any(|d| d.code == cqa_analysis::DiagCode::CartesianProduct));
    }

    #[test]
    fn union_queries_fall_back_with_reason() {
        let (db, sigma) = employee();
        let q = cqa_query::parse_ucq("Q(x) :- Employee(x, y)\nQ(x) :- Employee(x, 3000)").unwrap();
        let planned = planned(&db, &sigma, &q);
        match &planned.strategy {
            Strategy::RepairEnumeration { reason } => assert!(reason.contains("union")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn multi_component_fallback_uses_factored_enumeration() {
        let (mut db, sigma) = employee();
        // A second violating name group: two conflict components.
        db.insert("Employee", tuple!["smith", 3500]).unwrap();
        let q = cqa_query::parse_ucq("Q(x) :- Employee(x, y)\nQ(x) :- Employee(x, 3000)").unwrap();
        let planned = planned(&db, &sigma, &q);
        match &planned.strategy {
            Strategy::FactoredEnumeration {
                reason,
                factorization,
            } => {
                assert!(reason.contains("union"), "reason: {reason}");
                assert_eq!(factorization.components, 2);
                assert_eq!(factorization.product_repairs, Some(4));
                assert_eq!(factorization.factored_repairs, 4);
            }
            other => panic!("expected factored fallback, got {other:?}"),
        }
        // The A006 finding rides along in the diagnostics.
        assert!(planned
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ConflictComponents));
        // And the answers agree with the reference semantics.
        let reference =
            crate::cqa::consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        assert_eq!(planned.answers, reference);
    }
}
