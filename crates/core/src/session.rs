//! A session facade over the planner and the delta-maintained conflict
//! state: the library-level object a long-running service (`cqa-server`)
//! holds per tenant, plus the two `&Database` entry points for callers
//! that hold no session.
//!
//! A [`CqaSession`] owns a loaded [`Database`] plus the warm expensive
//! artifacts — the delta-maintained [`IncrementalState`] (conflict
//! hyper-graph, primed component factorization and frozen core) and,
//! inside the database itself, the shared base-index cache. Only writes
//! touch the warm state: every mutation goes through the change-log
//! pipeline and brings the state up to date **incrementally**, so reads
//! ([`CqaSession::answer`], [`CqaSession::repairs`]) take `&self`, plan
//! against the maintained hyper-graph instead of rebuilding it, and can
//! run concurrently. The facade is deliberately thin: every answer it
//! produces is byte-identical to the corresponding one-shot library call
//! on the same instance (`tests/server_equivalence.rs` pins this through
//! the wire, `tests/incremental_equivalence.rs` pins the state).
//!
//! # Budget discipline
//!
//! Maintenance after a mutation is metered by the *mutation* request's
//! budget (a latch falls back to an exact full recompute — never truncated
//! state). A query finds the state current and spends nothing on it, so a
//! query request's budget meters exactly the same work it would meter on
//! the one-shot path: truncation outcomes are identical between a warm
//! session and a cold [`answer`] call under the same logical budget.

use crate::cqa::{repairs_budgeted, RepairClass};
use crate::delta::{IncrementalState, MaintenanceDecision};
use crate::planner::{answer, PlannedAnswer, Request};
use crate::repair::Repair;
use cqa_analysis::{DiagCode, Diagnostic};
use cqa_constraints::ConstraintSet;
use cqa_exec::{Budget, Outcome};
use cqa_query::UnionQuery;
use cqa_relation::{Database, RelationError, Tid, Tuple, Value};
use std::sync::Arc;

/// Certain answers over S-repairs through [`answer`], cold, on a copy of
/// `db`.
pub fn answer_consistently_budgeted(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    budget: &Budget,
) -> Result<Outcome<PlannedAnswer>, RelationError> {
    let base = Arc::new(db.clone());
    answer(&base, sigma, None, &Request::certain(query), budget)
}

/// Certain answers over S-repairs through [`answer`], on a copy of `db`,
/// against a warm [`IncrementalState`]. The state is refreshed first under
/// `budget` (incrementally when the change log permits, from scratch
/// otherwise), and the refresh decision is reported as the A007
/// `incremental-maintenance` diagnostic.
pub fn answer_consistently_incremental(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    state: &mut IncrementalState,
    budget: &Budget,
) -> Result<Outcome<PlannedAnswer>, RelationError> {
    let decision = state.refresh_budgeted(db, sigma, budget)?;
    let a007 = Diagnostic::new(DiagCode::IncrementalMaintenance, decision.describe());
    let base = Arc::new(db.clone());
    let out = answer(&base, sigma, Some(state), &Request::certain(query), budget)?;
    Ok(out.map(|mut planned| {
        planned.diagnostics.push(a007);
        planned
    }))
}

/// One tenant's loaded instance plus warm CQA artifacts. See the module
/// docs for the maintenance and budget discipline.
#[derive(Debug, Clone)]
pub struct CqaSession {
    /// The instance. `Arc` so repair enumeration and the factored fold
    /// share the base without cloning; mutations go through
    /// [`Arc::make_mut`], which is a no-op while no enumeration borrow is
    /// alive (a writer excludes the readers, so that is the steady state).
    db: Arc<Database>,
    sigma: ConstraintSet,
    /// Delta-maintained conflict state; `None` when Σ is not denial-class
    /// (tgds present), in which case every query falls back to the batch
    /// planner.
    state: Option<IncrementalState>,
}

impl CqaSession {
    /// Open a session over a loaded instance and constraint set, building
    /// the warm conflict state once (for denial-class Σ).
    pub fn new(db: Database, sigma: ConstraintSet) -> Result<CqaSession, RelationError> {
        let state = if sigma.is_denial_class() {
            Some(IncrementalState::new(&db, &sigma)?)
        } else {
            None
        };
        Ok(CqaSession {
            db: Arc::new(db),
            sigma,
            state,
        })
    }

    /// Open a session from codec-format database text and Σ-format
    /// constraint text — the wire-level entry point. Errors are rendered to
    /// strings (the two sub-crates have distinct error types).
    pub fn from_text(db_text: &str, sigma_text: &str) -> Result<CqaSession, String> {
        let db = cqa_relation::load(db_text).map_err(|e| e.to_string())?;
        let sigma = cqa_constraints::parse_constraints(sigma_text).map_err(|e| e.to_string())?;
        CqaSession::new(db, sigma).map_err(|e| e.to_string())
    }

    /// The live instance.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The session's constraint set.
    pub fn sigma(&self) -> &ConstraintSet {
        &self.sigma
    }

    /// The instance's mutation epoch.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Is the instance currently consistent w.r.t. Σ? Reads the maintained
    /// state when available (O(1)), falls back to full satisfaction
    /// checking otherwise.
    pub fn is_consistent(&self) -> Result<bool, RelationError> {
        match &self.state {
            Some(state) if state.epoch() == self.db.epoch() => Ok(state.is_consistent()),
            _ => self.sigma.is_satisfied(self.db.as_ref()),
        }
    }

    /// Number of minimal violation sets — the conflict hyper-graph's edges
    /// (denial-class Σ only; `None` when the state is cold or Σ has tgds).
    pub fn violation_count(&self) -> Option<usize> {
        match &self.state {
            Some(state) if state.epoch() == self.db.epoch() => Some(state.graph().edge_count()),
            _ => None,
        }
    }

    /// Insert a tuple and bring the conflict state up to date through the
    /// delta pipeline. Returns the tid and the maintenance decision.
    pub fn insert(
        &mut self,
        relation: &str,
        tuple: Tuple,
        budget: &Budget,
    ) -> Result<(Tid, MaintenanceDecision), RelationError> {
        let tid = Arc::make_mut(&mut self.db).insert(relation, tuple)?;
        let decision = self.maintain(budget)?;
        Ok((tid, decision))
    }

    /// Delete a tuple by tid; maintains the conflict state like
    /// [`insert`](CqaSession::insert).
    pub fn delete(
        &mut self,
        tid: Tid,
        budget: &Budget,
    ) -> Result<(String, Tuple, MaintenanceDecision), RelationError> {
        let (relation, tuple) = Arc::make_mut(&mut self.db).delete(tid)?;
        let decision = self.maintain(budget)?;
        Ok((relation, tuple, decision))
    }

    /// Update one attribute in place; maintains the conflict state like
    /// [`insert`](CqaSession::insert).
    pub fn update(
        &mut self,
        tid: Tid,
        position: usize,
        value: Value,
        budget: &Budget,
    ) -> Result<MaintenanceDecision, RelationError> {
        Arc::make_mut(&mut self.db).update_value(tid, position, value)?;
        self.maintain(budget)
    }

    /// Bring the maintained state up to the instance's epoch. A budget
    /// latch mid-delta falls back to an exact full recompute (never
    /// truncated state). With tgds in Σ there is nothing to maintain.
    pub fn maintain(&mut self, budget: &Budget) -> Result<MaintenanceDecision, RelationError> {
        match &mut self.state {
            Some(state) => Ok(state
                .refresh_budgeted(&self.db, &self.sigma, budget)?
                .clone()),
            None => Ok(MaintenanceDecision::Recompute {
                reason: "Σ contains tgds: no incremental conflict state is maintained".into(),
            }),
        }
    }

    /// Answer `request` through the one CQA route ([`answer`]), against
    /// the warm maintained hyper-graph when available. Byte-identical to
    /// the cold route on the same instance and budget.
    pub fn answer(
        &self,
        request: &Request<'_>,
        budget: &Budget,
    ) -> Result<Outcome<PlannedAnswer>, RelationError> {
        answer(&self.db, &self.sigma, self.state.as_ref(), request, budget)
    }

    /// Enumerate delta repairs of the session's instance through
    /// [`repairs_budgeted`]. Subset and cardinality classes share the
    /// session's `Arc`ed base — zero instance clones.
    /// [`RepairClass::AttributeNull`] has no delta representation; callers
    /// route it to [`attribute_repairs`](CqaSession::attribute_repairs)
    /// instead.
    pub fn repairs(
        &self,
        class: RepairClass,
        limit: Option<usize>,
        budget: &Budget,
    ) -> Result<Outcome<Vec<Repair>>, RelationError> {
        repairs_budgeted(&self.db, &self.sigma, class, limit, budget)
    }

    /// Attribute-based null repairs (polynomial, always exact).
    pub fn attribute_repairs(
        &self,
    ) -> Result<Vec<crate::attr_repair::AttributeRepair>, RelationError> {
        crate::attr_repair::attribute_repairs(&self.db, &self.sigma)
    }

    /// How the last maintenance call revalidated the warm state (for
    /// diagnostics endpoints); `None` when Σ has tgds.
    pub fn last_maintenance(&self) -> Option<&MaintenanceDecision> {
        self.state.as_ref().map(IncrementalState::last_decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::KeyConstraint;
    use cqa_query::parse_query;
    use cqa_relation::{tuple, RelationSchema};

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

    fn employee_session() -> CqaSession {
        let (db, sigma) = employee();
        CqaSession::new(db, sigma).unwrap()
    }

    #[test]
    fn incremental_planner_matches_batch_and_reports_a007() {
        let (mut db, sigma) = employee();
        let mut state = IncrementalState::new(&db, &sigma).unwrap();
        let q = cqa_query::parse_ucq("Q(x) :- Employee(x, y)\nQ(x) :- Employee(x, 3000)").unwrap();
        // Mutate: a second conflicting name group appears.
        db.insert("Employee", tuple!["smith", 3500]).unwrap();
        let budget = Budget::unlimited();
        let incr = answer_consistently_incremental(&db, &sigma, &q, &mut state, &budget)
            .unwrap()
            .into_value();
        let batch = answer_consistently_budgeted(&db, &sigma, &q, &budget)
            .unwrap()
            .into_value();
        assert_eq!(incr.answers, batch.answers);
        assert_eq!(incr.strategy, batch.strategy);
        let a007 = incr
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::IncrementalMaintenance)
            .expect("A007 diagnostic");
        assert!(a007.message.contains("incrementally"), "{}", a007.message);
        // A second call with no new mutations reports a fresh cache.
        let again = answer_consistently_incremental(&db, &sigma, &q, &mut state, &budget)
            .unwrap()
            .into_value();
        assert_eq!(again.answers, batch.answers);
        assert!(again
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::IncrementalMaintenance && d.message.contains("current")));
        // Consistent after removing the conflicts: direct evaluation.
        db.delete(cqa_relation::Tid(2)).unwrap();
        db.delete(cqa_relation::Tid(4)).unwrap();
        let direct = answer_consistently_incremental(&db, &sigma, &q, &mut state, &budget)
            .unwrap()
            .into_value();
        assert_eq!(direct.strategy, crate::planner::Strategy::DirectEvaluation);
    }

    #[test]
    fn mutations_maintain_and_queries_match_one_shot() {
        let mut session = employee_session();
        assert!(!session.is_consistent().unwrap());
        assert_eq!(session.violation_count(), Some(1));
        let budget = Budget::unlimited();
        // Mutate: a new conflicting group, maintained incrementally.
        let (tid, decision) = session
            .insert("Employee", tuple!["smith", 3500], &budget)
            .unwrap();
        assert!(matches!(decision, MaintenanceDecision::Incremental { .. }));
        assert_eq!(session.violation_count(), Some(2));
        // Warm certain answers == one-shot planner on the same instance.
        let q = cqa_query::UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let warm = session
            .answer(&Request::certain(&q), &budget)
            .unwrap()
            .into_value();
        let cold = answer_consistently_budgeted(session.db(), session.sigma(), &q, &budget)
            .unwrap()
            .into_value();
        assert_eq!(warm.answers, cold.answers);
        assert_eq!(warm.strategy, cold.strategy);
        // Delete the new tuple: back to one violation.
        let (rel, _, decision) = session.delete(tid, &budget).unwrap();
        assert_eq!(rel, "Employee");
        assert!(matches!(decision, MaintenanceDecision::Incremental { .. }));
        assert_eq!(session.violation_count(), Some(1));
    }

    #[test]
    fn from_text_round_trips_and_repairs_share_the_base() {
        let mut session =
            CqaSession::from_text("@relation T(K, V)\n1, 1\n1, 2\n", "key T(K)\n").unwrap();
        let budget = Budget::unlimited();
        let repairs = session
            .repairs(RepairClass::Subset, None, &budget)
            .unwrap()
            .into_value();
        assert_eq!(repairs.len(), 2);
        // A mutation while no enumeration borrow is alive must not clone —
        // the repairs above hold `Arc`s of the base, so release them first.
        drop(repairs);
        let before = Arc::as_ptr(&session.db);
        session.insert("T", tuple![2, 7], &budget).unwrap();
        assert_eq!(before, Arc::as_ptr(&session.db));
    }

    #[test]
    fn query_budget_trajectory_matches_one_shot() {
        // Same step budget, warm vs cold: identical truncation outcome and
        // identical (sound) answers — the facade must not consume budget
        // before planning.
        let session = CqaSession::from_text(
            "@relation T(K, V)\n1, 1\n1, 2\n2, 1\n2, 2\n3, 1\n3, 2\n",
            "dc T(x, y), T(x, z), y != z\n",
        )
        .unwrap();
        let q = cqa_query::UnionQuery::single(parse_query("Q(x) :- T(x, y)").unwrap());
        for steps in [1u64, 5, 50, 5000] {
            let warm = session
                .answer(&Request::certain(&q), &Budget::steps(steps))
                .unwrap();
            let cold = answer_consistently_budgeted(
                session.db(),
                session.sigma(),
                &q,
                &Budget::steps(steps),
            )
            .unwrap();
            assert_eq!(warm.truncation(), cold.truncation(), "steps = {steps}");
            assert_eq!(
                warm.value().answers,
                cold.value().answers,
                "steps = {steps}"
            );
        }
    }

    #[test]
    fn tgd_sigma_disables_incremental_state_but_not_queries() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A"])).unwrap();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        db.insert("R", tuple![1]).unwrap();
        let tgd = cqa_constraints::Tgd::parse("t", "S(x) :- R(x)").unwrap();
        let sigma = ConstraintSet::from_iter([cqa_constraints::Constraint::Tgd(tgd)]);
        let mut session = CqaSession::new(db, sigma).unwrap();
        assert_eq!(session.violation_count(), None);
        assert!(session.last_maintenance().is_none());
        let budget = Budget::unlimited();
        assert!(matches!(
            session.maintain(&budget).unwrap(),
            MaintenanceDecision::Recompute { .. }
        ));
        let q = cqa_query::UnionQuery::single(parse_query("Q(x) :- R(x)").unwrap());
        let answers = session
            .answer(&Request::certain(&q), &budget)
            .unwrap()
            .into_value();
        assert_eq!(answers.answers.len(), 0); // S(1) missing: not consistent-certain
    }
}
