//! Consistent query answering (§3.1): certain answers over the class of
//! repairs.
//!
//! `Cons(Q, D, Σ) = ⋂ { Q(D') : D' repair of D }` — the model-theoretic
//! definition, computed by enumerating repairs. This is the *reference
//! semantics* of the workspace: the FO rewritings (`crate::rewrite`) and the
//! ASP repair programs (`cqa-asp`) are validated against it.
//!
//! Query evaluation over repairs always uses SQL null semantics: deletion
//! repairs of null-free instances are unaffected, and null-introducing
//! repairs (tuple- and attribute-level, §4.2–4.3) get the intended "nulls
//! don't join" behaviour. Certain answers containing a null are discarded —
//! a null is not a certain value.
//!
//! Every fold over a repair family — monolithic or factored, certain or
//! possible, budgeted or not — runs through one private driver, `fold`.
//! Since the repair class can be exponentially large (§3.1), it spreads
//! per-repair query evaluation across the `cqa-exec` pool and folds the
//! per-repair answer sets in repair order (intersection and union are
//! order-insensitive anyway), so results are byte-identical at every
//! thread count.

// audit:exponential — folds over the (worst-case exponential) repair family; every search loop must thread a Budget.
use crate::attr_repair::attribute_repairs;
use crate::crepair::c_repairs_budgeted;
use crate::factored::{FactoredRepairSet, Factorization};
use crate::repair::Repair;
use crate::srepair::{s_repairs_budgeted, RepairOptions};
use cqa_constraints::ConstraintSet;
use cqa_exec::{Budget, Outcome};
use cqa_query::{eval_aggregate, AggregateQuery, ConjunctiveQuery, NullSemantics, UnionQuery};
use cqa_relation::{Database, DeltaView, Facts, RelationError, Tid, Tuple, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which class of repairs CQA quantifies over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairClass {
    /// S-repairs (⊆-minimal symmetric difference), the default of \[3\].
    Subset,
    /// S-repairs restricted to deletions (the semantics of \[48\]).
    SubsetDeletionsOnly,
    /// C-repairs (minimum cardinality), §4.1.
    Cardinality,
    /// Attribute-based null repairs, §4.3.
    AttributeNull,
}

/// Which answers a CQA question asks for (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerKind {
    /// Certain (consistent) answers: returned by *every* repair.
    Certain,
    /// Possible (brave) answers: returned by at least one repair.
    Possible,
}

/// The chosen repair class, kept as copy-on-write deltas when the semantics
/// allows it. Attribute-null repairs mutate cell values in place, so they
/// have no delta representation and stay materialized.
enum RepairSet {
    /// Lazy delta repairs sharing one `Arc`'d base (S/C classes).
    Delta(Vec<Repair>),
    /// Materialized instances (attribute-null class).
    Materialized(Vec<Database>),
}

impl RepairSet {
    fn len(&self) -> usize {
        match self {
            RepairSet::Delta(r) => r.len(),
            RepairSet::Materialized(d) => d.len(),
        }
    }

    /// [`fold`] over every repair of the set, in set order.
    fn fold(
        &self,
        query: &UnionQuery,
        kind: AnswerKind,
        budget: &Budget,
    ) -> Result<Option<BTreeSet<Tuple>>, RelationError> {
        match self {
            RepairSet::Delta(reps) => fold(reps.iter().map(Ok), query, kind, budget),
            RepairSet::Materialized(dbs) => fold(dbs.iter().map(Ok), query, kind, budget),
        }
    }
}

/// Zero-clone views of a delta repair list, one per repair.
fn views(repairs: &[Repair]) -> Vec<DeltaView<'_>> {
    repairs.iter().map(Repair::view).collect()
}

/// Null-filtered SQL-semantics answers of `query` over one instance, via
/// the shared subplan cache ([`cqa_query::plan`]) when `cache_on`. Every
/// CQA fold funnels through here: certain folds intersect against the
/// filtered set (equivalent to filtering per site — the accumulator is
/// already null-free) and possible folds union it, so the cached unit is
/// exactly the unit the folds consume. Repairs that leave a query's
/// relations untouched share one entry — that is where the 2^k fold's
/// speedup comes from. Callers resolve `cache_on` once on the
/// coordinating thread ([`cqa_exec::plan_cache_enabled`], the sanctioned
/// ambient read) so pool workers never consult thread-local state.
fn sql_answers<F: Facts + ?Sized>(
    inst: &F,
    query: &UnionQuery,
    cache_on: bool,
) -> Arc<BTreeSet<Tuple>> {
    cqa_query::plan::cached_certain_answers(inst, query, NullSemantics::Sql, cache_on)
}

/// One member of a repair family, as the fold driver evaluates it: an
/// instance or view, or a delta repair (viewed zero-clone).
trait RepairView: Sync {
    fn answers(&self, query: &UnionQuery, cache_on: bool) -> Arc<BTreeSet<Tuple>>;
}

impl<F: Facts + ?Sized> RepairView for &F {
    fn answers(&self, query: &UnionQuery, cache_on: bool) -> Arc<BTreeSet<Tuple>> {
        sql_answers(*self, query, cache_on)
    }
}

impl RepairView for Repair {
    fn answers(&self, query: &UnionQuery, cache_on: bool) -> Arc<BTreeSet<Tuple>> {
        sql_answers(&self.view(), query, cache_on)
    }
}

impl RepairView for &Repair {
    fn answers(&self, query: &UnionQuery, cache_on: bool) -> Arc<BTreeSet<Tuple>> {
        (**self).answers(query, cache_on)
    }
}

/// The one CQA fold: streams repair views into a certain (intersection) or
/// possible (union) accumulator.
///
/// * Under a logical budget ([`Budget::forces_sequential`]) the views are
///   evaluated one at a time in stream order, with one tick charged per
///   view *before* it is evaluated — the cut point is
///   schedule-independent, and a cache hit never moves it.
/// * Otherwise parallel chunks of `threads() * 8` views are evaluated with
///   a deadline check at every chunk barrier, so a deadline fires after at
///   most one chunk of wasted work.
///
/// Either way a certain fold stops as soon as its accumulator is empty.
/// Chunks are folded in stream order, so the result is byte-identical at
/// every thread count. An empty stream folds to the empty set.
///
/// `Ok(None)` means the budget fired mid-fold. The partial accumulator is
/// discarded: for certain answers it would over-approximate, and under a
/// deadline its value would depend on scheduling. Callers substitute their
/// sound fallback.
fn fold<V: RepairView>(
    views: impl IntoIterator<Item = Result<V, RelationError>>,
    query: &UnionQuery,
    kind: AnswerKind,
    budget: &Budget,
) -> Result<Option<BTreeSet<Tuple>>, RelationError> {
    let cache_on = cqa_exec::plan_cache_enabled();
    let mut acc: Option<BTreeSet<Tuple>> = None;
    let absorb = |acc: &mut Option<BTreeSet<Tuple>>, here: &BTreeSet<Tuple>| match acc {
        None => *acc = Some(here.clone()),
        Some(a) if kind == AnswerKind::Certain => a.retain(|t| here.contains(t)),
        Some(a) => a.extend(here.iter().cloned()),
    };
    let settled = |acc: &Option<BTreeSet<Tuple>>| {
        kind == AnswerKind::Certain && acc.as_ref().is_some_and(BTreeSet::is_empty)
    };
    let mut views = views.into_iter();
    if budget.forces_sequential() {
        for view in views {
            if settled(&acc) {
                break;
            }
            if !budget.tick() {
                return Ok(None);
            }
            absorb(&mut acc, &view?.answers(query, cache_on));
        }
    } else {
        let chunk = cqa_exec::threads() * 8;
        while !settled(&acc) {
            if !budget.check_deadline() {
                return Ok(None);
            }
            let batch: Vec<V> = views.by_ref().take(chunk).collect::<Result<_, _>>()?;
            if batch.is_empty() {
                break;
            }
            for here in cqa_exec::par_map(&batch, |v| v.answers(query, cache_on)) {
                absorb(&mut acc, &here);
            }
        }
    }
    Ok(Some(acc.unwrap_or_default()))
}

/// Enumerate the delta repairs of `class` under a budget: C-repairs for
/// [`RepairClass::Cardinality`], S-repairs otherwise (deletions only for
/// [`RepairClass::SubsetDeletionsOnly`]). `limit` caps the S-repair search;
/// C-repair enumeration ignores it. [`RepairClass::AttributeNull`] has no
/// delta representation (see
/// [`attribute_repairs`]) and is
/// enumerated here as [`RepairClass::Subset`].
pub fn repairs_budgeted(
    db: &Arc<Database>,
    sigma: &ConstraintSet,
    class: RepairClass,
    limit: Option<usize>,
    budget: &Budget,
) -> Result<Outcome<Vec<Repair>>, RelationError> {
    if class == RepairClass::Cardinality {
        return c_repairs_budgeted(db, sigma, &RepairOptions::default(), budget);
    }
    let options = RepairOptions {
        limit,
        allow_insertions: class != RepairClass::SubsetDeletionsOnly,
        ..Default::default()
    };
    s_repairs_budgeted(db, sigma, &options, budget)
}

/// Materialize the chosen repair class.
///
/// Kept for callers that genuinely need owned instances (e.g. the virtual
/// integration crate); CQA itself answers over [`DeltaView`]s and never
/// materializes a repair.
pub fn repairs_of(
    db: &Database,
    sigma: &ConstraintSet,
    class: &RepairClass,
) -> Result<Vec<Database>, RelationError> {
    let base = Arc::new(db.clone());
    match repair_set_budgeted(&base, sigma, *class, &Budget::unlimited())?.into_value() {
        RepairSet::Delta(reps) => Ok(reps.into_iter().map(Repair::into_db).collect()),
        RepairSet::Materialized(dbs) => Ok(dbs),
    }
}

/// The consistent (certain) answers to `query` over the chosen repair class.
///
/// ```
/// use cqa_relation::{tuple, Database, RelationSchema};
/// use cqa_constraints::{ConstraintSet, KeyConstraint};
/// use cqa_query::{parse_query, UnionQuery};
/// use cqa_core::{consistent_answers, RepairClass};
///
/// let mut db = Database::new();
/// db.create_relation(RelationSchema::new("Emp", ["Name", "Salary"]))?;
/// db.insert("Emp", tuple!["page", 5000])?;
/// db.insert("Emp", tuple!["page", 8000])?;
/// db.insert("Emp", tuple!["smith", 3000])?;
/// let sigma = ConstraintSet::from_iter([KeyConstraint::new("Emp", ["Name"])]);
///
/// let q = UnionQuery::single(parse_query("Q(x, y) :- Emp(x, y)")?);
/// let certain = consistent_answers(&db, &sigma, &q, &RepairClass::Subset)?;
/// assert_eq!(certain, [tuple!["smith", 3000]].into());
/// # Ok::<(), cqa_relation::RelationError>(())
/// ```
pub fn consistent_answers(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
) -> Result<BTreeSet<Tuple>, RelationError> {
    Ok(consistent_answers_budgeted(db, sigma, query, class, &Budget::unlimited())?.into_value())
}

/// Certain answers over an explicit list of instances or repair views (used
/// directly by the virtual data integration crate, whose "repairs" are
/// virtual global instances).
pub fn certain_over<F: Facts>(instances: &[F], query: &UnionQuery) -> BTreeSet<Tuple> {
    fold_all(instances, query, AnswerKind::Certain)
}

/// The possible (brave) answers: returned by at least one repair.
pub fn possible_answers(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
) -> Result<BTreeSet<Tuple>, RelationError> {
    Ok(possible_answers_budgeted(db, sigma, query, class, &Budget::unlimited())?.into_value())
}

/// Possible (brave) answers over an explicit list of instances or views.
pub fn possible_over<F: Facts>(instances: &[F], query: &UnionQuery) -> BTreeSet<Tuple> {
    fold_all(instances, query, AnswerKind::Possible)
}

/// [`fold`] over an explicit list, unbudgeted: it always completes.
fn fold_all<F: Facts>(instances: &[F], query: &UnionQuery, kind: AnswerKind) -> BTreeSet<Tuple> {
    fold(instances.iter().map(Ok), query, kind, &Budget::unlimited())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Is a query certainly (consistently) true — true in *every* repair?
/// That is exactly a non-empty certain answer to its Boolean projection.
pub fn certainly_true(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
) -> Result<bool, RelationError> {
    let boolean = UnionQuery {
        disjuncts: query
            .disjuncts
            .iter()
            .map(|cq| ConjunctiveQuery {
                head: Vec::new(),
                ..cq.clone()
            })
            .collect(),
    };
    Ok(!consistent_answers(db, sigma, &boolean, class)?.is_empty())
}

/// Range-semantics CQA for scalar aggregates \[5\]: the greatest lower bound
/// and least upper bound of the aggregate value across all repairs.
///
/// Returns `None` when some repair yields no aggregate value (empty body for
/// `Min`/`Max`/`Sum`/`Avg`), since no finite range is certain then.
pub fn consistent_aggregate_range(
    db: &Database,
    sigma: &ConstraintSet,
    query: &AggregateQuery,
    class: &RepairClass,
) -> Result<Option<(Value, Value)>, RelationError> {
    debug_assert!(
        query.group_by.is_empty(),
        "range semantics is for scalar aggregates"
    );
    let base = Arc::new(db.clone());
    match repair_set_budgeted(&base, sigma, *class, &Budget::unlimited())?.into_value() {
        RepairSet::Delta(reps) => Ok(aggregate_range_over(&views(&reps), query)),
        RepairSet::Materialized(dbs) => Ok(aggregate_range_over(&dbs, query)),
    }
}

/// Scalar-aggregate range over an explicit list of instances or views.
fn aggregate_range_over<F: Facts>(
    instances: &[F],
    query: &AggregateQuery,
) -> Option<(Value, Value)> {
    let per_repair = cqa_exec::par_map(instances, |inst| {
        eval_aggregate(inst, query, NullSemantics::Sql)
    });
    let mut lo: Option<Value> = None;
    let mut hi: Option<Value> = None;
    for r in per_repair {
        let Some((_, v)) = r.into_iter().next() else {
            match query.op {
                cqa_query::AggOp::Count | cqa_query::AggOp::CountDistinct => {
                    let zero = Value::Int(0);
                    if lo.as_ref().is_none_or(|l| zero < *l) {
                        lo = Some(zero.clone());
                    }
                    if hi.as_ref().is_none_or(|h| zero > *h) {
                        hi = Some(zero);
                    }
                    continue;
                }
                _ => return None,
            }
        };
        if lo.as_ref().is_none_or(|l| v < *l) {
            lo = Some(v.clone());
        }
        if hi.as_ref().is_none_or(|h| v > *h) {
            hi = Some(v);
        }
    }
    lo.zip(hi)
}

/// Range-semantics CQA for *grouped* aggregates: for every group key that
/// appears in **every** repair (only those have certain ranges), the
/// greatest lower / least upper bound of its aggregate value.
pub fn consistent_aggregate_ranges(
    db: &Database,
    sigma: &ConstraintSet,
    query: &AggregateQuery,
    class: &RepairClass,
) -> Result<std::collections::BTreeMap<Tuple, (Value, Value)>, RelationError> {
    let base = Arc::new(db.clone());
    match repair_set_budgeted(&base, sigma, *class, &Budget::unlimited())?.into_value() {
        RepairSet::Delta(reps) => Ok(aggregate_ranges_over(&views(&reps), query)),
        RepairSet::Materialized(dbs) => Ok(aggregate_ranges_over(&dbs, query)),
    }
}

/// Grouped-aggregate ranges over an explicit list of instances or views.
fn aggregate_ranges_over<F: Facts>(
    instances: &[F],
    query: &AggregateQuery,
) -> std::collections::BTreeMap<Tuple, (Value, Value)> {
    let per_repair = cqa_exec::par_map(instances, |inst| {
        eval_aggregate(inst, query, NullSemantics::Sql)
    });
    let mut acc: Option<std::collections::BTreeMap<Tuple, (Value, Value)>> = None;
    for here in per_repair {
        acc = Some(match acc {
            None => here.into_iter().map(|(k, v)| (k, (v.clone(), v))).collect(),
            Some(mut ranges) => {
                // Groups absent from this repair are not certain: drop them.
                ranges.retain(|k, _| here.contains_key(k));
                for (k, v) in here {
                    if let Some((lo, hi)) = ranges.get_mut(&k) {
                        if v < *lo {
                            *lo = v.clone();
                        }
                        if v > *hi {
                            *hi = v;
                        }
                    }
                }
                ranges
            }
        });
    }
    acc.unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Budgeted (anytime) CQA
// ---------------------------------------------------------------------------

/// Is every disjunct free of negated atoms? Negation-free UCQs (with
/// comparisons) are monotone: adding tuples to an instance can only add
/// answers. Monotonicity is what makes the consistent-core fallback below
/// sound.
fn is_monotone(query: &UnionQuery) -> bool {
    query.disjuncts.iter().all(|cq| cq.negated.is_empty())
}

/// Do all repairs of the chosen class stay *inside* the original instance
/// (no insertions)? True for denial-class Σ under the S/C classes, for the
/// explicit deletion-only semantics, and for attribute-null repairs (which
/// only null out cells — under SQL null semantics a nulled cell can satisfy
/// strictly fewer join conditions, never more).
fn deletion_only_semantics(sigma: &ConstraintSet, class: RepairClass) -> bool {
    match class {
        RepairClass::SubsetDeletionsOnly | RepairClass::AttributeNull => true,
        RepairClass::Subset | RepairClass::Cardinality => sigma.is_denial_class(),
    }
}

/// The sound **under-approximation** of the certain answers used whenever a
/// budget cuts certain-answer evaluation short: evaluate `query` over the
/// consistent core of `db` (the tuples free of any conflict). For
/// denial-class Σ every repair keeps the whole core, so for a monotone
/// query, `Q(core) ⊆ Q(D')` for *every* repair `D'` — hence
/// `Q(core) ⊆ Cons(Q, D, Σ)`. When that argument does not apply (tgds, a
/// non-monotone query), the fallback is the empty set, which is trivially
/// sound.
///
/// Note the naive alternative — intersecting `Q` over the repairs explored
/// so far — is *not* sound for certain answers: dropping repairs from an
/// intersection can only grow it, i.e. it over-approximates. That is why
/// truncated runs discard the partial fold and use the core.
fn core_certain_fallback(
    base: &Arc<Database>,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: RepairClass,
) -> Result<BTreeSet<Tuple>, RelationError> {
    let applicable =
        class != RepairClass::AttributeNull && sigma.is_denial_class() && is_monotone(query);
    if !applicable {
        return Ok(BTreeSet::new());
    }
    let core = sigma.conflict_hypergraph(&**base)?.isolated_nodes();
    let deleted: BTreeSet<Tid> = base.tids().difference(&core).copied().collect();
    let core_view = Repair::from_delta_arc(base, deleted, Vec::new())?;
    let cache_on = cqa_exec::plan_cache_enabled();
    Ok((*sql_answers(&core_view.view(), query, cache_on)).clone())
}

/// The sound **over-approximation** of the possible answers used when a
/// budget fires: `Q(D)` itself. Under deletion-only repair semantics every
/// repair is a sub-instance of `D`, so for a monotone query
/// `Q(D') ⊆ Q(D)` for every repair — the union over repairs is contained in
/// `Q(D)`. When repairs may insert tuples (tgds) or the query is
/// non-monotone this bound is unavailable, and the caller falls back to the
/// union over the repairs it *did* explore (a lower bound, flagged as such).
fn possible_fallback(
    base: &Arc<Database>,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: RepairClass,
    explored: &RepairSet,
) -> Result<BTreeSet<Tuple>, RelationError> {
    if deletion_only_semantics(sigma, class) && is_monotone(query) {
        return Ok((*sql_answers(&**base, query, cqa_exec::plan_cache_enabled())).clone());
    }
    let all = explored.fold(query, AnswerKind::Possible, &Budget::unlimited())?;
    Ok(all.unwrap_or_default())
}

/// Enumerate the chosen repair class under a budget. The attribute-null
/// class is not yet metered during enumeration (its repair space is tamed
/// by per-cell minimality rather than search); the query-evaluation fold on
/// top of it still honours deadlines.
fn repair_set_budgeted(
    base: &Arc<Database>,
    sigma: &ConstraintSet,
    class: RepairClass,
    budget: &Budget,
) -> Result<Outcome<RepairSet>, RelationError> {
    if class == RepairClass::AttributeNull {
        let dbs: Vec<Database> = attribute_repairs(base, sigma)?
            .into_iter()
            .map(|r| r.db)
            .collect();
        let n = dbs.len() as u64;
        return Ok(budget.outcome_with(RepairSet::Materialized(dbs), n));
    }
    Ok(repairs_budgeted(base, sigma, class, None, budget)?.map(RepairSet::Delta))
}

/// The monolithic reference fold under a budget: enumerate the whole repair
/// class, then fold the query over it. On truncation the certain side
/// answers [`core_certain_fallback`] and the possible side
/// [`possible_fallback`]; `explored` counts the repairs enumerated.
fn monolithic(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: RepairClass,
    kind: AnswerKind,
    budget: &Budget,
) -> Result<Outcome<BTreeSet<Tuple>>, RelationError> {
    let base = Arc::new(db.clone());
    let set = repair_set_budgeted(&base, sigma, class, budget)?;
    let cut = set.truncation().map(|(_, explored)| explored);
    let set = set.into_value();
    // Enumeration was cut: the explored repairs are only part of the class,
    // so folding over them would be unsound for certain answers. Skip the
    // fold and answer from the fallback.
    let folded = if budget.exhausted() {
        None
    } else {
        set.fold(query, kind, budget)?
    };
    match folded {
        Some(answers) if !budget.exhausted() => Ok(Outcome::Exact(answers)),
        _ => {
            let (fallback, explored) = match kind {
                AnswerKind::Certain => (
                    core_certain_fallback(&base, sigma, query, class)?,
                    cut.unwrap_or(set.len() as u64),
                ),
                AnswerKind::Possible => (
                    possible_fallback(&base, sigma, query, class, &set)?,
                    set.len() as u64,
                ),
            };
            Ok(budget.outcome_with(fallback, explored))
        }
    }
}

// ---------------------------------------------------------------------------
// Conflict-component factorization (§4.1 + Lopatenko–Bertossi locality).
//
// When Σ is denial-class, the repair family is the cross-product of
// independent per-component families over the frozen core. The folds below
// exploit that: if no query witness spans two conflict components, certain
// and possible answers decompose as
//
//   certain  = Q(core) ∪ ⋃_c ⋂_{h ∈ family_c} Q(view_{c,h})
//   possible = Q(core) ∪ ⋃_c ⋃_{h ∈ family_c} Q(view_{c,h})
//
// where `view_{c,h}` keeps the core plus component `c` minus the local
// deletion set `h` (every *other* component's conflicted tuples deleted —
// the most destructive completion, a sub-instance of every repair choosing
// `h` for `c`, which is what makes the fold sound for monotone queries).
// That is `Σ_c |family_c|` query evaluations instead of `∏_c |family_c|`.
// When a witness does span components (or the query is non-monotone), the
// fold degrades gracefully to streaming over the *lazy* cross-product — the
// same set of repairs as the monolithic fold, never materialized as a list.
// ---------------------------------------------------------------------------

/// Does any witness of `query` over the full instance touch tuples of two
/// different conflict components? Sound for the factored fold's purposes:
/// repairs are sub-instances of `base` (deletion-only semantics), so every
/// witness inside a repair is a witness over `base`; if none of those spans
/// two components, the per-component decomposition applies.
fn query_spans_components(
    base: &Database,
    query: &UnionQuery,
    components: &cqa_constraints::ConflictComponents,
) -> bool {
    let index = components.component_index();
    query.disjuncts.iter().any(|cq| {
        let mut spanning = false;
        cqa_query::for_each_witness(base, cq, NullSemantics::Sql, &mut |w| {
            let mut seen: Option<usize> = None;
            for tid in &w.tids {
                // Frozen-core tuples belong to every repair; ignore them.
                let Some(&c) = index.get(tid) else { continue };
                match seen {
                    None => seen = Some(c),
                    Some(prev) if prev != c => {
                        spanning = true;
                        return false; // stop the witness scan
                    }
                    Some(_) => {}
                }
            }
            true
        });
        spanning
    })
}

/// `Q(core)` — the factored sibling of [`core_certain_fallback`], reusing
/// the already-computed factorization instead of re-deriving the isolated
/// nodes. Empty for non-monotone queries (same soundness argument).
fn factored_core_answers(
    fx: &FactoredRepairSet,
    query: &UnionQuery,
) -> Result<BTreeSet<Tuple>, RelationError> {
    if !is_monotone(query) {
        return Ok(BTreeSet::new());
    }
    let core = Repair::from_delta_arc(fx.base(), fx.conflicted(), Vec::new())?;
    let cache_on = cqa_exec::plan_cache_enabled();
    Ok((*sql_answers(&core.view(), query, cache_on)).clone())
}

/// The per-component fold (monotone, non-spanning case): `Q(core)` plus,
/// per component, the fold over its component-local views. `None` when the
/// budget fired mid-fold.
fn fold_per_component(
    fx: &FactoredRepairSet,
    query: &UnionQuery,
    kind: AnswerKind,
    budget: &Budget,
) -> Result<Option<BTreeSet<Tuple>>, RelationError> {
    let mut out = factored_core_answers(fx, query)?;
    for (comp, family) in fx.families().families.iter().enumerate() {
        let local = family
            .iter()
            .map(|h| Repair::from_delta_arc(fx.base(), fx.local_deleted(comp, h), Vec::new()));
        match fold(local, query, kind, budget)? {
            Some(answers) => out.extend(answers),
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

/// Factored CQA over a pre-built conflict hyper-graph (whose component
/// decomposition is cached on it). The caller guarantees `graph` was built
/// from `base`'s instance, Σ is denial-class, and `class` is one of the
/// deletion-only classes (S / S-deletions-only / C).
///
/// Non-spanning monotone queries fold per component; otherwise the fold
/// streams over the **lazy** cross-product — the same repair family as the
/// monolithic fold, never stored. On truncation certain answers degrade to
/// `Q(core)`, possible answers to `Q(D)` for a monotone query (the sound
/// over-approximation under deletion-only semantics) and to the empty set
/// otherwise.
pub(crate) fn factored_with(
    base: &Arc<Database>,
    graph: &cqa_constraints::ConflictHypergraph,
    query: &UnionQuery,
    class: RepairClass,
    kind: AnswerKind,
    budget: &Budget,
) -> Result<FactoredAnswers, RelationError> {
    let fx = match class {
        RepairClass::Cardinality => FactoredRepairSet::enumerate_minimum(base, graph, budget),
        _ => FactoredRepairSet::enumerate_minimal(base, graph, budget),
    }
    .into_value();
    let explored = fx.families().exact_components();
    let (folded, spanning) = if budget.exhausted() {
        (None, false)
    } else if !is_monotone(query) || query_spans_components(base, query, fx.components()) {
        let product = fx
            .deltas()
            .map(|d| Repair::from_delta_arc(fx.base(), d, Vec::new()));
        (fold(product, query, kind, budget)?, true)
    } else {
        (fold_per_component(&fx, query, kind, budget)?, false)
    };
    let info = fx.factorization(spanning);
    match folded {
        Some(answers) if !budget.exhausted() => Ok(Outcome::Exact((answers, info))),
        _ => {
            let fallback = match kind {
                AnswerKind::Certain => factored_core_answers(&fx, query)?,
                AnswerKind::Possible if is_monotone(query) => {
                    (*sql_answers(&**base, query, cqa_exec::plan_cache_enabled())).clone()
                }
                AnswerKind::Possible => BTreeSet::new(),
            };
            Ok(budget.outcome_with((fallback, info), explored))
        }
    }
}

/// A factored CQA result: the answer set plus the [`Factorization`] shape
/// summary that produced it.
pub type FactoredAnswers = Outcome<(BTreeSet<Tuple>, Factorization)>;

/// Component-factorized [`consistent_answers_budgeted`]: `None` when the
/// factorization does not apply (non-denial Σ or the attribute-null class),
/// otherwise the certain answers plus the [`Factorization`] shape summary.
/// The answers equal the monolithic fold's bit for bit whenever the outcome
/// is exact.
pub fn consistent_answers_factored_budgeted(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
    budget: &Budget,
) -> Result<Option<FactoredAnswers>, RelationError> {
    factored(db, sigma, query, *class, AnswerKind::Certain, budget)
}

/// Component-factorized [`possible_answers_budgeted`]; see
/// [`consistent_answers_factored_budgeted`].
pub fn possible_answers_factored_budgeted(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
    budget: &Budget,
) -> Result<Option<FactoredAnswers>, RelationError> {
    factored(db, sigma, query, *class, AnswerKind::Possible, budget)
}

fn factored(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: RepairClass,
    kind: AnswerKind,
    budget: &Budget,
) -> Result<Option<FactoredAnswers>, RelationError> {
    if class == RepairClass::AttributeNull || !sigma.is_denial_class() {
        return Ok(None);
    }
    let base = Arc::new(db.clone());
    let graph = sigma.conflict_hypergraph(db)?;
    factored_with(&base, &graph, query, class, kind, budget).map(Some)
}

/// Budget-aware [`consistent_answers`]: the anytime monolithic reference
/// fold.
///
/// An [`Outcome::Exact`] result equals the unbudgeted answer bit for bit.
/// An [`Outcome::Truncated`] result is a **sound under-approximation** of
/// the certain answers (possibly empty — see `core_certain_fallback` for
/// when it is non-trivial); `explored` counts the repairs that were fully
/// enumerated before the budget fired.
pub fn consistent_answers_budgeted(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
    budget: &Budget,
) -> Result<Outcome<BTreeSet<Tuple>>, RelationError> {
    monolithic(db, sigma, query, *class, AnswerKind::Certain, budget)
}

/// Budget-aware [`possible_answers`].
///
/// An [`Outcome::Exact`] result equals the unbudgeted answer. A truncated
/// result is a **sound over-approximation** (`Q(D)`) whenever the repair
/// semantics is deletion-only and the query monotone; otherwise it degrades
/// to the union over the repairs explored so far — a lower bound, which is
/// why the outcome tag matters.
pub fn possible_answers_budgeted(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
    budget: &Budget,
) -> Result<Outcome<BTreeSet<Tuple>>, RelationError> {
    monolithic(db, sigma, query, *class, AnswerKind::Possible, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{KeyConstraint, Tgd};
    use cqa_query::{parse_query, AggOp};
    use cqa_relation::{tuple, RelationSchema};

    fn supply() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "Supply",
            ["Company", "Receiver", "Item"],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new("Articles", ["Item"]))
            .unwrap();
        db.insert("Supply", tuple!["C1", "R1", "I1"]).unwrap();
        db.insert("Supply", tuple!["C2", "R2", "I2"]).unwrap();
        db.insert("Supply", tuple!["C2", "R1", "I3"]).unwrap();
        db.insert("Articles", tuple!["I1"]).unwrap();
        db.insert("Articles", tuple!["I2"]).unwrap();
        let sigma =
            ConstraintSet::from_iter([Tgd::parse("ID", "Articles(z) :- Supply(x, y, z)").unwrap()]);
        (db, sigma)
    }

    fn employee() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        db.insert("Employee", tuple!["stowe", 7000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Employee", ["Name"])]);
        (db, sigma)
    }

    #[test]
    fn example_3_2_consistent_answers() {
        let (db, sigma) = supply();
        let q = UnionQuery::single(parse_query("Q(z) :- Supply(x, y, z)").unwrap());
        let ans = consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&tuple!["I1"]));
        assert!(ans.contains(&tuple!["I2"]));
        // Possible answers include I3 (it survives in the insertion repair).
        let poss = possible_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        assert!(poss.contains(&tuple!["I3"]));
    }

    #[test]
    fn example_3_3_q1_and_q2() {
        let (db, sigma) = employee();
        let q1 = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let ans1 = consistent_answers(&db, &sigma, &q1, &RepairClass::Subset).unwrap();
        assert_eq!(ans1, [tuple!["smith", 3000], tuple!["stowe", 7000]].into());
        let q2 = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let ans2 = consistent_answers(&db, &sigma, &q2, &RepairClass::Subset).unwrap();
        assert_eq!(
            ans2,
            [tuple!["page"], tuple!["smith"], tuple!["stowe"]].into()
        );
    }

    #[test]
    fn boolean_certainty() {
        let (db, sigma) = employee();
        let yes = UnionQuery::single(parse_query("Q() :- Employee('smith', y)").unwrap());
        assert!(certainly_true(&db, &sigma, &yes, &RepairClass::Subset).unwrap());
        let no = UnionQuery::single(parse_query("Q() :- Employee('page', 5000)").unwrap());
        assert!(!certainly_true(&db, &sigma, &no, &RepairClass::Subset).unwrap());
        // But it is possibly true.
        let poss = possible_answers(&db, &sigma, &no, &RepairClass::Subset).unwrap();
        assert!(!poss.is_empty());
    }

    #[test]
    fn aggregate_range_semantics() {
        let (db, sigma) = employee();
        let body = parse_query("Q() :- Employee(n, s)").unwrap();
        let s = body.vars.lookup("s").unwrap();
        let sum = AggregateQuery {
            body,
            group_by: vec![],
            target: Some(s),
            op: AggOp::Sum,
        };
        let (lo, hi) = consistent_aggregate_range(&db, &sigma, &sum, &RepairClass::Subset)
            .unwrap()
            .unwrap();
        // Repairs keep page at 5000 or 8000: totals 15000 and 18000.
        assert_eq!(lo, Value::Int(15000));
        assert_eq!(hi, Value::Int(18000));
    }

    #[test]
    fn aggregate_count_range() {
        let (db, sigma) = employee();
        let body = parse_query("Q() :- Employee(n, s)").unwrap();
        let count = AggregateQuery {
            body,
            group_by: vec![],
            target: None,
            op: AggOp::Count,
        };
        let (lo, hi) = consistent_aggregate_range(&db, &sigma, &count, &RepairClass::Subset)
            .unwrap()
            .unwrap();
        assert_eq!(lo, Value::Int(3));
        assert_eq!(hi, Value::Int(3));
    }

    #[test]
    fn grouped_aggregate_ranges() {
        // Employees grouped by department; one department has a conflicted
        // salary, the other is clean.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Emp", ["Name", "Dept", "Salary"]))
            .unwrap();
        db.insert("Emp", tuple!["page", "cs", 5000]).unwrap();
        db.insert("Emp", tuple!["page", "cs", 8000]).unwrap();
        db.insert("Emp", tuple!["smith", "cs", 3000]).unwrap();
        db.insert("Emp", tuple!["stowe", "math", 7000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Emp", ["Name"])]);
        let body = parse_query("Q() :- Emp(n, d, s)").unwrap();
        let (d, s) = (
            body.vars.lookup("d").unwrap(),
            body.vars.lookup("s").unwrap(),
        );
        let agg = AggregateQuery {
            body,
            group_by: vec![d],
            target: Some(s),
            op: AggOp::Sum,
        };
        let ranges = consistent_aggregate_ranges(&db, &sigma, &agg, &RepairClass::Subset).unwrap();
        assert_eq!(
            ranges.get(&tuple!["cs"]),
            Some(&(Value::Int(8000), Value::Int(11000)))
        );
        // The clean department has a point interval.
        assert_eq!(
            ranges.get(&tuple!["math"]),
            Some(&(Value::Int(7000), Value::Int(7000)))
        );
    }

    #[test]
    fn grouped_ranges_drop_uncertain_groups() {
        // A department whose *only* employee is conflicted on Dept itself:
        // it vanishes from some repairs, so it has no certain range.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Emp", ["Name", "Dept", "Salary"]))
            .unwrap();
        db.insert("Emp", tuple!["page", "cs", 5000]).unwrap();
        db.insert("Emp", tuple!["page", "math", 5000]).unwrap();
        db.insert("Emp", tuple!["smith", "cs", 3000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Emp", ["Name"])]);
        let body = parse_query("Q() :- Emp(n, d, s)").unwrap();
        let (d, s) = (
            body.vars.lookup("d").unwrap(),
            body.vars.lookup("s").unwrap(),
        );
        let agg = AggregateQuery {
            body,
            group_by: vec![d],
            target: Some(s),
            op: AggOp::Sum,
        };
        let ranges = consistent_aggregate_ranges(&db, &sigma, &agg, &RepairClass::Subset).unwrap();
        // math exists only in the repair keeping (page, math): not certain.
        assert!(!ranges.contains_key(&tuple!["math"]));
        // cs is present in both repairs (smith always; page sometimes).
        assert_eq!(
            ranges.get(&tuple!["cs"]),
            Some(&(Value::Int(3000), Value::Int(8000)))
        );
    }

    #[test]
    fn cardinality_class_can_differ_from_subset() {
        // Figure 1 instance: query "B(a) holds?" — true in D1 and D3 but D1
        // is not a C-repair; under C-repairs the answer set differs.
        let mut db = Database::new();
        for r in ["A", "B", "C", "D", "E"] {
            db.create_relation(RelationSchema::new(r, ["X"])).unwrap();
            db.insert(r, tuple!["a"]).unwrap();
        }
        let sigma = ConstraintSet::from_iter([
            cqa_constraints::DenialConstraint::parse("d1", "B(x), E(x)").unwrap(),
            cqa_constraints::DenialConstraint::parse("d2", "B(x), C(x), D(x)").unwrap(),
            cqa_constraints::DenialConstraint::parse("d3", "A(x), C(x)").unwrap(),
        ]);
        let q = UnionQuery::single(parse_query("Q() :- D(x)").unwrap());
        // D(a) is in D2, D3, D4 (all C-repairs) but not in D1 = {B, C}.
        assert!(!certainly_true(&db, &sigma, &q, &RepairClass::Subset).unwrap());
        assert!(certainly_true(&db, &sigma, &q, &RepairClass::Cardinality).unwrap());
    }

    #[test]
    fn attribute_null_class_certain_answers() {
        // Example 4.4 + the query Q(x): S(x). Beyond the paper's two
        // showcased repairs, the full class of minimal attribute repairs
        // also contains ones that null S(a4) or R's join cells; only a2 is
        // never touched, so Cons(Q) = {a2}.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        db.insert("R", tuple!["a4", "a3"]).unwrap();
        db.insert("R", tuple!["a2", "a1"]).unwrap();
        db.insert("R", tuple!["a3", "a3"]).unwrap();
        db.insert("S", tuple!["a4"]).unwrap();
        db.insert("S", tuple!["a2"]).unwrap();
        db.insert("S", tuple!["a3"]).unwrap();
        let sigma = ConstraintSet::from_iter([cqa_constraints::DenialConstraint::parse(
            "kappa",
            "S(x), R(x, y), S(y)",
        )
        .unwrap()]);
        let q = UnionQuery::single(parse_query("Q(x) :- S(x)").unwrap());
        let ans = consistent_answers(&db, &sigma, &q, &RepairClass::AttributeNull).unwrap();
        assert_eq!(ans, [tuple!["a2"]].into());
        // The possible answers do include a4 and a3 (kept by some repairs).
        let poss = possible_answers(&db, &sigma, &q, &RepairClass::AttributeNull).unwrap();
        assert!(poss.contains(&tuple!["a4"]));
        assert!(poss.contains(&tuple!["a3"]));
        // No null sneaks into answers.
        assert!(poss.iter().all(|t| !t.has_null()));
    }

    #[test]
    fn route_agrees_with_the_reference_folds() {
        let (db, sigma) = employee();
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        assert_eq!(
            repairs_of(&db, &sigma, &RepairClass::Subset).unwrap().len(),
            2
        );
        let base = Arc::new(db.clone());
        let route = |kind| {
            let request = crate::planner::Request {
                query: &q,
                kind,
                class: RepairClass::Subset,
            };
            crate::planner::answer(&base, &sigma, None, &request, &Budget::unlimited())
                .unwrap()
                .into_value()
                .answers
        };
        let (certain, possible) = (route(AnswerKind::Certain), route(AnswerKind::Possible));
        assert_eq!(
            certain,
            consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap()
        );
        assert_eq!(
            possible,
            possible_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap()
        );
        assert!(certain.is_subset(&possible));
    }

    #[test]
    fn consistent_db_cqa_equals_plain_eval() {
        let (mut db, sigma) = employee();
        db.delete(cqa_relation::Tid(2)).unwrap();
        let q = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let cons = consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        let plain = cqa_query::eval_ucq(&db, &q, NullSemantics::Structural);
        assert_eq!(cons, plain);
    }

    /// Two independent key-violation groups plus clean rows: 2 components,
    /// 4 monolithic S-repairs (2×2).
    fn two_component_employee() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["miller", 1000]).unwrap();
        db.insert("Employee", tuple!["miller", 2000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Employee", ["Name"])]);
        (db, sigma)
    }

    #[test]
    fn factored_certain_matches_monolithic_per_component_path() {
        let (db, sigma) = two_component_employee();
        for q in [
            "Q(x, y) :- Employee(x, y)",
            "Q(x) :- Employee(x, y)",
            "Q(y) :- Employee('page', y)",
        ] {
            let q = UnionQuery::single(parse_query(q).unwrap());
            for class in [RepairClass::Subset, RepairClass::Cardinality] {
                let mono = consistent_answers(&db, &sigma, &q, &class).unwrap();
                let (fact, info) = consistent_answers_factored_budgeted(
                    &db,
                    &sigma,
                    &q,
                    &class,
                    &Budget::unlimited(),
                )
                .unwrap()
                .expect("denial-class")
                .into_value();
                assert_eq!(fact, mono, "class {class:?}");
                assert_eq!(info.components, 2);
                assert!(!info.spanning, "single-atom witnesses never span");
                let mono_p = possible_answers(&db, &sigma, &q, &class).unwrap();
                let (fact_p, _) = possible_answers_factored_budgeted(
                    &db,
                    &sigma,
                    &q,
                    &class,
                    &Budget::unlimited(),
                )
                .unwrap()
                .unwrap()
                .into_value();
                assert_eq!(fact_p, mono_p, "class {class:?}");
            }
        }
    }

    #[test]
    fn spanning_query_falls_back_to_lazy_product_and_agrees() {
        let (db, sigma) = two_component_employee();
        // A self-join across names joins witnesses from both conflict
        // components, so the per-component fold is unsound and the lazy
        // cross-product fold must take over.
        let q =
            UnionQuery::single(parse_query("Q(x, u) :- Employee(x, y), Employee(u, w)").unwrap());
        let mono = consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        let (fact, info) = consistent_answers_factored_budgeted(
            &db,
            &sigma,
            &q,
            &RepairClass::Subset,
            &Budget::unlimited(),
        )
        .unwrap()
        .unwrap()
        .into_value();
        assert!(info.spanning);
        assert_eq!(fact, mono);
        let mono_p = possible_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        let (fact_p, _) = possible_answers_factored_budgeted(
            &db,
            &sigma,
            &q,
            &RepairClass::Subset,
            &Budget::unlimited(),
        )
        .unwrap()
        .unwrap()
        .into_value();
        assert_eq!(fact_p, mono_p);
    }

    #[test]
    fn factored_fold_is_not_applicable_outside_the_denial_class() {
        let (db, sigma) = supply();
        let q = UnionQuery::single(parse_query("Q(z) :- Supply(x, y, z)").unwrap());
        assert!(consistent_answers_factored_budgeted(
            &db,
            &sigma,
            &q,
            &RepairClass::Subset,
            &Budget::unlimited()
        )
        .unwrap()
        .is_none());
        let (db2, sigma2) = two_component_employee();
        assert!(consistent_answers_factored_budgeted(
            &db2,
            &sigma2,
            &q,
            &RepairClass::AttributeNull,
            &Budget::unlimited()
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn factored_truncation_degrades_to_the_sound_bounds() {
        let (db, sigma) = two_component_employee();
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        // One step: enumeration is cut immediately; certain degrades to the
        // frozen-core answers, possible to Q(D).
        let budget = Budget::steps(1);
        let out =
            consistent_answers_factored_budgeted(&db, &sigma, &q, &RepairClass::Subset, &budget)
                .unwrap()
                .unwrap();
        assert!(out.is_truncated());
        let (certain, _) = out.into_value();
        assert_eq!(certain, [tuple!["smith"]].into());
        let budget = Budget::steps(1);
        let out =
            possible_answers_factored_budgeted(&db, &sigma, &q, &RepairClass::Subset, &budget)
                .unwrap()
                .unwrap();
        assert!(out.is_truncated());
        let (possible, _) = out.into_value();
        assert_eq!(
            possible,
            [tuple!["page"], tuple!["miller"], tuple!["smith"]].into()
        );
    }

    /// Step-budget truncation points of the three folds, pinned on the
    /// pre-refactor implementations (one fold function per fold shape) so
    /// that the shared driver is held to every tick they charged. Each row
    /// lists, for `Budget::steps(n)` with n = 1..=12, the `explored` count
    /// of the truncated outcome (`-`: exact), then the answers a truncated
    /// run falls back to and the exact answers.
    #[test]
    fn step_budget_truncation_points_are_pinned() {
        type Fold<'a> = &'a dyn Fn(&Budget) -> Outcome<BTreeSet<Tuple>>;
        let (db, sigma) = &two_component_employee();
        let class = RepairClass::Subset;
        let local = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let spanning = UnionQuery::single(
            parse_query("Q(y, w) :- Employee('page', y), Employee('miller', w)").unwrap(),
        );
        let mono = |kind, q| {
            move |b: &Budget| {
                match kind {
                    AnswerKind::Certain => consistent_answers_budgeted(db, sigma, q, &class, b),
                    AnswerKind::Possible => possible_answers_budgeted(db, sigma, q, &class, b),
                }
                .unwrap()
            }
        };
        let factored = |kind, q| {
            move |b: &Budget| {
                match kind {
                    AnswerKind::Certain => {
                        consistent_answers_factored_budgeted(db, sigma, q, &class, b)
                    }
                    AnswerKind::Possible => {
                        possible_answers_factored_budgeted(db, sigma, q, &class, b)
                    }
                }
                .unwrap()
                .expect("denial-class")
                .map(|(answers, _)| answers)
            }
        };
        let (certain, possible) = (AnswerKind::Certain, AnswerKind::Possible);
        let names = "(miller) (page) (smith)";
        let pairs = "(5000, 1000) (5000, 2000) (8000, 1000) (8000, 2000)";
        let rows: [(&str, Fold, &str, &str, &str); 8] = [
            (
                "monolithic certain, local",
                &mono(certain, &local),
                "0 0 1 2 2 3 4 4 4 4 - -",
                "(smith)",
                names,
            ),
            (
                "monolithic possible, local",
                &mono(possible, &local),
                "0 0 1 2 2 3 4 4 4 4 - -",
                names,
                names,
            ),
            (
                "monolithic certain, spanning",
                &mono(certain, &spanning),
                "0 0 1 2 2 3 4 4 - - - -",
                "",
                "",
            ),
            (
                "monolithic possible, spanning",
                &mono(possible, &spanning),
                "0 0 1 2 2 3 4 4 4 4 - -",
                pairs,
                pairs,
            ),
            (
                "per-component certain",
                &factored(certain, &local),
                "0 0 1 1 1 2 2 2 2 - - -",
                "(smith)",
                names,
            ),
            (
                "per-component possible",
                &factored(possible, &local),
                "0 0 1 1 1 2 2 2 2 - - -",
                names,
                names,
            ),
            (
                "lazy-product certain",
                &factored(certain, &spanning),
                "0 0 1 1 1 2 2 - - - - -",
                "",
                "",
            ),
            (
                "lazy-product possible",
                &factored(possible, &spanning),
                "0 0 1 1 1 2 2 2 2 - - -",
                pairs,
                pairs,
            ),
        ];
        for (name, fold, explored, truncated, exact) in rows {
            for (n, explored) in (1..=12u64).zip(explored.split(' ')) {
                let out = fold(&Budget::steps(n));
                let want = explored
                    .parse::<u64>()
                    .ok()
                    .map(|e| (cqa_exec::TruncationReason::StepLimit, e));
                assert_eq!(out.truncation(), want, "{name} at {n} steps");
                let shown: Vec<String> = out.value().iter().map(Tuple::to_string).collect();
                let want = if want.is_some() { truncated } else { exact };
                assert_eq!(shown.join(" "), want, "{name} at {n} steps");
            }
        }
        // The factored rows ran the fold they are named after.
        for (q, spans) in [(&local, false), (&spanning, true)] {
            let out =
                consistent_answers_factored_budgeted(db, sigma, q, &class, &Budget::unlimited());
            assert_eq!(out.unwrap().unwrap().value().1.spanning, spans);
        }
    }
}
