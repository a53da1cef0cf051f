//! Certain-answer FO rewriting for self-join-free conjunctive queries under
//! primary keys — the mature theory the paper credits to Fuxman–Miller \[64\]
//! and Koutris–Wijsen \[77, 109\].
//!
//! The decision procedure is the **attack graph**: for each query atom `F`,
//! compute the variable closure `F⁺` of `F`'s key variables under the FDs
//! `key(G) → vars(G)` contributed by the *other* atoms; `F` attacks `G` if
//! `G` is reachable from `F` through variables outside `F⁺`. If the attack
//! graph is acyclic, the certain answers are definable in FO and this module
//! constructs the rewriting recursively (processing an unattacked atom
//! first); if it is cyclic, CQA for the query is coNP-complete and
//! [`rewrite_key_query`] returns [`KeyRewriteError::CyclicAttackGraph`] so
//! the caller can fall back to repair enumeration.
//!
//! The rewriting has two forms over one recursion: [`rewrite_key_query`]
//! emits the FO formula (for the active-domain interpreter and SQL), and
//! [`KeyPlan`] compiles it to key-group probes over [`Facts`] — the form the
//! planner evaluates.

use cqa_query::{
    probe_rows, Atom, CmpOp, Comparison, ConjunctiveQuery, Fo, FoQuery, NullSemantics, Term, Var,
    VarTable, VidBindings,
};
use cqa_relation::{Facts, HashIndex, Tuple, Value, Vid, VidRow};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Primary keys by relation name → key attribute positions.
///
/// A relation absent from the map is treated as *all-key* (it can never
/// violate its key, so it contributes nothing to repairs).
pub type KeyPositions = BTreeMap<String, Vec<usize>>;

/// Why a query could not be rewritten.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyRewriteError {
    /// The query has a self-join; the dichotomy theory covers SJF queries.
    SelfJoin,
    /// The query has negated atoms or comparisons.
    UnsupportedFeatures,
    /// The attack graph is cyclic: CQA for this query is coNP-complete.
    CyclicAttackGraph {
        /// A pair of mutually attacking atom indices witnessing the cycle.
        witness: (usize, usize),
    },
}

impl fmt::Display for KeyRewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyRewriteError::SelfJoin => {
                f.write_str("query has a self-join; key rewriting covers self-join-free queries")
            }
            KeyRewriteError::UnsupportedFeatures => {
                f.write_str("query has negation or comparisons; key rewriting covers plain CQs")
            }
            KeyRewriteError::CyclicAttackGraph { witness } => write!(
                f,
                "attack graph is cyclic (atoms {} and {} attack each other): CQA is coNP-complete",
                witness.0, witness.1
            ),
        }
    }
}

impl std::error::Error for KeyRewriteError {}

/// The attack graph of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackGraph {
    /// `attacks[i]` = indices of atoms attacked by atom `i`.
    pub attacks: Vec<BTreeSet<usize>>,
}

impl AttackGraph {
    /// Is the graph acyclic? (Attack graphs have the property that any cycle
    /// induces a 2-cycle, so mutual attack detection suffices; we check full
    /// reachability cycles anyway for robustness.)
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// A witnessing pair on some cycle, if any.
    pub fn find_cycle(&self) -> Option<(usize, usize)> {
        let n = self.attacks.len();
        // Transitive closure (tiny n).
        let mut reach = self.attacks.clone();
        for _ in 0..n {
            for i in 0..n {
                let mut extra = BTreeSet::new();
                for &j in &reach[i] {
                    extra.extend(reach[j].iter().copied());
                }
                reach[i].extend(extra);
            }
        }
        for i in 0..n {
            for &j in &reach[i] {
                // Skip the self-loop the closure adds to every atom on a
                // cycle: the witness must name the two distinct endpoints.
                if j != i && reach[j].contains(&i) {
                    return Some((i.min(j), i.max(j)));
                }
            }
        }
        None
    }

    /// Atoms with no incoming attack.
    pub fn unattacked(&self) -> Vec<usize> {
        let n = self.attacks.len();
        (0..n)
            .filter(|&i| (0..n).all(|j| !self.attacks[j].contains(&i)))
            .collect()
    }
}

fn key_positions_of(atom: &Atom, keys: &KeyPositions) -> Vec<usize> {
    keys.get(&atom.relation)
        .cloned()
        .unwrap_or_else(|| (0..atom.terms.len()).collect())
}

fn key_vars(atom: &Atom, keys: &KeyPositions) -> BTreeSet<Var> {
    key_positions_of(atom, keys)
        .iter()
        .filter_map(|&p| atom.terms.get(p).and_then(Term::as_var))
        .collect()
}

fn all_vars(atom: &Atom) -> BTreeSet<Var> {
    atom.vars().collect()
}

/// Closure of `seed` under the FDs `key(G) → vars(G)` for `G ≠ skip`.
fn closure(
    atoms: &[Atom],
    skip: usize,
    keys: &KeyPositions,
    seed: &BTreeSet<Var>,
) -> BTreeSet<Var> {
    let mut out = seed.clone();
    loop {
        let mut changed = false;
        for (i, g) in atoms.iter().enumerate() {
            if i == skip {
                continue;
            }
            if key_vars(g, keys).iter().all(|v| out.contains(v)) {
                for v in all_vars(g) {
                    changed |= out.insert(v);
                }
            }
        }
        if !changed {
            return out;
        }
    }
}

/// Build the attack graph of `atoms`, treating `frozen` variables (the free
/// variables of the query) as constants.
pub fn attack_graph_of(atoms: &[Atom], keys: &KeyPositions, frozen: &BTreeSet<Var>) -> AttackGraph {
    let n = atoms.len();
    let mut attacks = vec![BTreeSet::new(); n];
    for f in 0..n {
        let mut seed: BTreeSet<Var> = key_vars(&atoms[f], keys);
        seed.extend(frozen.iter().copied());
        let plus = closure(atoms, f, keys, &seed);
        // BFS over atoms through shared variables outside `plus`.
        let outside = |a: &Atom, b: &Atom| -> bool {
            let va = all_vars(a);
            all_vars(b)
                .intersection(&va)
                .any(|v| !plus.contains(v) && !frozen.contains(v))
        };
        let mut reached: BTreeSet<usize> = BTreeSet::new();
        let mut frontier = vec![f];
        while let Some(h) = frontier.pop() {
            for g in 0..n {
                if g != f && !reached.contains(&g) && outside(&atoms[h], &atoms[g]) {
                    reached.insert(g);
                    frontier.push(g);
                }
            }
        }
        attacks[f] = reached;
    }
    AttackGraph { attacks }
}

/// The attack graph of a query (frozen = its head variables).
pub fn attack_graph(q: &ConjunctiveQuery, keys: &KeyPositions) -> AttackGraph {
    attack_graph_of(&q.atoms, keys, &q.head_vars())
}

/// Rewrite a self-join-free CQ under primary keys into an FO query computing
/// its certain answers on any (possibly inconsistent) instance.
pub fn rewrite_key_query(
    q: &ConjunctiveQuery,
    keys: &KeyPositions,
) -> Result<FoQuery, KeyRewriteError> {
    let mut vars = q.vars.clone();
    let levels = key_levels(q, keys, &mut vars)?;
    // ∃ local (F(x̄, ȳ) ∧ ∀ȳ' (F(x̄, ȳ') → conditions ∧ rest)), innermost
    // level first; the last level's rest is `true`.
    let formula = levels
        .iter()
        .rev()
        .fold(Fo::And(Vec::new()), |rest, level| level.formula(rest));
    let free: Vec<Var> = q.head.iter().filter_map(Term::as_var).collect();
    Ok(FoQuery {
        vars,
        free,
        formula,
    })
}

/// Surface the attack-graph dichotomy as a stable diagnostic, so
/// `repairctl analyze --query` reports the complexity class instead of that
/// knowledge living only inside the planner: `Q003` when the graph is
/// acyclic (certain answers FO-rewritable, PTIME route), `Q004` with the
/// witness pair when it is cyclic (CQA coNP-complete, repair enumeration).
/// Returns `None` when the query is outside the dichotomy's scope — a
/// self-join, or negation/comparisons.
pub fn rewritability_diagnostic(
    q: &ConjunctiveQuery,
    keys: &KeyPositions,
) -> Option<cqa_analysis::Diagnostic> {
    use cqa_analysis::{DiagCode, Diagnostic};
    if !q.is_self_join_free() || !q.negated.is_empty() || !q.comparisons.is_empty() {
        return None;
    }
    let graph = attack_graph(q, keys);
    Some(match graph.find_cycle() {
        None => Diagnostic::new(
            DiagCode::FoRewritable,
            format!(
                "attack graph over {} atom(s) is acyclic: certain answers are \
                 FO-rewritable (PTIME, see `repairctl sql`)",
                q.atoms.len()
            ),
        ),
        Some((a, b)) => Diagnostic::new(
            DiagCode::AttackCycle,
            format!(
                "attack graph is cyclic — atoms {} ({}) and {} ({}) attack each \
                 other: CQA is coNP-complete; answering falls back to repair \
                 enumeration",
                a, q.atoms[a].relation, b, q.atoms[b].relation
            ),
        ),
    })
}

fn substitute(atom: &Atom, sigma: &BTreeMap<Var, Var>) -> Atom {
    Atom::new(
        atom.relation.clone(),
        atom.terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => Term::Var(*sigma.get(v).unwrap_or(v)),
                c => c.clone(),
            })
            .collect(),
    )
}

/// What a non-key position of a level's atom demands of every tuple in the
/// key group. Each non-key position also gets a fresh variable `y` that
/// takes the member's value there.
#[derive(Debug, Clone)]
enum Slot {
    /// `y` equals this constant.
    Const(Value),
    /// `y` equals a variable bound before the group is read: a head
    /// variable, one bound by an earlier level, or one of the atom's own
    /// key variables.
    Bound(Var),
    /// The first occurrence of a purely non-key variable: `y` replaces it
    /// in the remaining atoms.
    Fresh,
    /// A later occurrence of such a variable: `y` equals its first `y`.
    Repeat(Var),
}

/// One level of the attack-graph recursion: the unattacked atom `F`
/// processed there.
#[derive(Debug, Clone)]
struct Level {
    /// `F`, with the variables earlier levels replaced by fresh copies
    /// already substituted.
    atom: Atom,
    key_pos: Vec<usize>,
    /// `(position, y, slot)` for every non-key position, in position order.
    slots: Vec<(usize, Var, Slot)>,
    /// `F`'s variables that are free neither in the query nor at an earlier
    /// level: the ∃-quantified ones.
    local: Vec<Var>,
}

impl Level {
    /// `∃ local (F ∧ ¬∃ȳ' (F(x̄, ȳ') ∧ ¬(conditions ∧ rest)))`.
    fn formula(&self, rest: Fo) -> Fo {
        let f = &self.atom;
        let mut fresh_terms = f.terms.clone();
        let mut fresh_vars = Vec::with_capacity(self.slots.len());
        let mut inner_parts = Vec::new();
        for (p, y, slot) in &self.slots {
            if let Some(t) = fresh_terms.get_mut(*p) {
                *t = Term::Var(*y);
            }
            fresh_vars.push(*y);
            let equal_to = match slot {
                Slot::Const(c) => Term::Const(c.clone()),
                Slot::Bound(v) | Slot::Repeat(v) => Term::Var(*v),
                Slot::Fresh => continue,
            };
            inner_parts.push(Fo::Cmp(Comparison::new(Term::Var(*y), CmpOp::Eq, equal_to)));
        }
        inner_parts.push(rest);
        let forall = Fo::Not(Box::new(Fo::Exists(
            fresh_vars,
            Box::new(Fo::And(vec![
                Fo::Atom(Atom::new(f.relation.clone(), fresh_terms)),
                Fo::Not(Box::new(Fo::and(inner_parts))),
            ])),
        )));
        let step = Fo::And(vec![Fo::Atom(f.clone()), forall]);
        if self.local.is_empty() {
            step
        } else {
            Fo::Exists(self.local.clone(), Box::new(step))
        }
    }
}

/// The levels of the rewriting, outermost first: repeatedly take the first
/// unattacked atom of the remaining ones, give each of its non-key
/// positions a fresh variable from `vars`, and freeze its key variables and
/// the fresh copies for the rest. Both [`rewrite_key_query`] and
/// [`KeyPlan::compile`] build on this list, so they accept exactly the
/// same queries.
fn key_levels(
    q: &ConjunctiveQuery,
    keys: &KeyPositions,
    vars: &mut VarTable,
) -> Result<Vec<Level>, KeyRewriteError> {
    if !q.is_self_join_free() {
        return Err(KeyRewriteError::SelfJoin);
    }
    if !q.negated.is_empty() || !q.comparisons.is_empty() {
        return Err(KeyRewriteError::UnsupportedFeatures);
    }
    let mut atoms = q.atoms.clone();
    let mut frozen: BTreeSet<Var> = q.head_vars();
    let mut levels = Vec::with_capacity(atoms.len());
    while !atoms.is_empty() {
        let graph = attack_graph_of(&atoms, keys, &frozen);
        if let Some(witness) = graph.find_cycle() {
            return Err(KeyRewriteError::CyclicAttackGraph { witness });
        }
        let Some(&f_idx) = graph.unattacked().first() else {
            unreachable!("an acyclic attack graph has an unattacked atom");
        };
        let f = atoms.remove(f_idx);
        let key_pos = key_positions_of(&f, keys);
        let kvars = key_vars(&f, keys);
        let mut sigma: BTreeMap<Var, Var> = BTreeMap::new();
        let mut slots = Vec::new();
        for (p, t) in f.terms.iter().enumerate() {
            if key_pos.contains(&p) {
                continue;
            }
            let y = vars.fresh();
            let slot = match t {
                Term::Const(c) => Slot::Const(c.clone()),
                Term::Var(v) if frozen.contains(v) || kvars.contains(v) => Slot::Bound(*v),
                Term::Var(v) => match sigma.get(v) {
                    Some(&first) => Slot::Repeat(first),
                    None => {
                        sigma.insert(*v, y);
                        Slot::Fresh
                    }
                },
            };
            slots.push((p, y, slot));
        }
        let local: Vec<Var> = all_vars(&f)
            .into_iter()
            .filter(|v| !frozen.contains(v))
            .collect();
        atoms = atoms.iter().map(|a| substitute(a, &sigma)).collect();
        frozen.extend(kvars);
        frozen.extend(sigma.values().copied());
        levels.push(Level {
            atom: f,
            key_pos,
            slots,
            local,
        });
    }
    Ok(levels)
}

/// A position of a [`KeyPlan`] step whose vid comes from outside the row.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Index into [`KeyPlan::consts`].
    Const(usize),
    /// Bound before the step: a head variable or an earlier step's.
    Bound(Var),
    /// One of the step's ∃-quantified key variables, bound from the key
    /// group (key positions only).
    Local(Var),
}

/// What a key-group member must hold at a non-key position.
#[derive(Debug, Clone, Copy)]
enum Demand {
    /// Index into [`KeyPlan::consts`].
    Const(usize),
    /// Equal to a bound variable.
    Equal(Var),
    /// Bind this fresh variable to the member's vid.
    Bind(Var),
}

/// One level of a [`KeyPlan`]: a key-group check on one relation.
#[derive(Debug, Clone)]
struct Step {
    relation: String,
    key_pos: Vec<usize>,
    /// Aligned with `key_pos`.
    key: Vec<Cell>,
    /// `(position, demand)` for every non-key position.
    pattern: Vec<(usize, Demand)>,
    /// Every key position is a constant or bound before the step, so the
    /// key group is one probe.
    key_bound: bool,
    /// Positions known before the step (never [`Cell::Local`]), aligned
    /// with `known`: the probe for candidate key groups when the key is
    /// not bound.
    known_pos: Vec<usize>,
    known: Vec<Cell>,
}

/// The attack-graph rewriting of a self-join-free CQ under primary keys,
/// compiled to semi-joins and anti-joins over [`Facts`] in vid space.
///
/// [`KeyPlan::compile`] walks the same unattacked-atom order as
/// [`rewrite_key_query`], so it accepts and refuses exactly the same
/// queries. [`KeyPlan::certain_answers`] computes what the interpreted
/// rewriting computes (on null-free data) without an active domain: every
/// certain answer is an answer on the instance itself, so the candidates
/// are the query's answers, and each one is checked step by step. At step
/// `i` some key group of atom `i` must be non-empty, and every member must
/// match the atom's non-key pattern and make step `i + 1` hold with the
/// member's values bound. A key group is one hash-index probe
/// ([`cqa_query::probe_rows`]).
#[derive(Debug, Clone)]
pub struct KeyPlan {
    /// The query, for the candidates.
    query: ConjunctiveQuery,
    steps: Vec<Step>,
    /// The constants of the steps, resolved to vids once per evaluation.
    consts: Vec<Value>,
    /// Variables of the query plus the fresh ones of the steps.
    n_vars: usize,
    /// The query has a null constant: nulls are declined.
    null_constant: bool,
}

/// The certain answers a [`KeyPlan`] computed, with the work it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRun {
    /// The certain answers, in value order.
    pub answers: BTreeSet<Tuple>,
    /// Rows the key-group checks read: every row a probe or scan handed
    /// them, candidate enumeration not included. Deterministic for a given
    /// instance and query, so tests can bound it.
    pub rows_read: u64,
}

impl KeyPlan {
    /// Compile `q` under `keys`; fails where [`rewrite_key_query`] fails.
    pub fn compile(q: &ConjunctiveQuery, keys: &KeyPositions) -> Result<KeyPlan, KeyRewriteError> {
        let mut vars = q.vars.clone();
        let levels = key_levels(q, keys, &mut vars)?;
        let mut consts: Vec<Value> = Vec::new();
        let mut constant = |c: &Value| {
            consts.push(c.clone());
            consts.len() - 1
        };
        let mut steps = Vec::with_capacity(levels.len());
        for level in levels {
            let cell = |t: &Term, constant: &mut dyn FnMut(&Value) -> usize| match t {
                Term::Const(c) => Cell::Const(constant(c)),
                Term::Var(v) if level.local.contains(v) => Cell::Local(*v),
                Term::Var(v) => Cell::Bound(*v),
            };
            let terms = &level.atom.terms;
            let key: Vec<Cell> = level
                .key_pos
                .iter()
                .filter_map(|&p| terms.get(p))
                .map(|t| cell(t, &mut constant))
                .collect();
            let (known_pos, known) = terms
                .iter()
                .enumerate()
                .map(|(p, t)| (p, cell(t, &mut constant)))
                .filter(|(_, c)| !matches!(c, Cell::Local(_)))
                .unzip();
            let pattern = level
                .slots
                .iter()
                .map(|(p, y, slot)| {
                    let demand = match slot {
                        Slot::Const(c) => Demand::Const(constant(c)),
                        Slot::Bound(v) | Slot::Repeat(v) => Demand::Equal(*v),
                        Slot::Fresh => Demand::Bind(*y),
                    };
                    (*p, demand)
                })
                .collect();
            steps.push(Step {
                relation: level.atom.relation,
                key_bound: key.iter().all(|c| !matches!(c, Cell::Local(_))),
                key_pos: level.key_pos,
                key,
                pattern,
                known_pos,
                known,
            });
        }
        let null_constant = q
            .head
            .iter()
            .chain(q.atoms.iter().flat_map(|a| a.terms.iter()))
            .any(|t| matches!(t, Term::Const(c) if c.is_null()));
        Ok(KeyPlan {
            query: q.clone(),
            steps,
            consts,
            n_vars: vars.len(),
            null_constant,
        })
    }

    /// The certain answers of the query over `facts` under the keys, or
    /// `None` as soon as the evaluation reads a null: in a candidate's
    /// witness or in a row a key-group check reads. The rewriting treats a
    /// null as a plain constant, while certain answers give nulls SQL
    /// semantics, so the caller must answer such an instance another way.
    pub fn certain_answers<F: Facts + ?Sized>(&self, facts: &F) -> Option<KeyRun> {
        if self.null_constant {
            return None;
        }
        let mut run = Run {
            facts,
            plan: self,
            consts: self.consts.iter().map(|c| facts.vid_of(c)).collect(),
            key_index: vec![None; self.steps.len()],
            known_index: vec![None; self.steps.len()],
            rows_read: 0,
        };
        // Candidates: the query's answers on the instance, as head vids,
        // each with the first atom's keys in its witnesses — the first step
        // can only succeed on one of those key groups.
        let first_key: &[Cell] = self.steps.first().map_or(&[], |s| &s.key);
        let mut candidates: BTreeSet<(Vec<Vid>, Vec<Vid>)> = BTreeSet::new();
        let mut null = false;
        cqa_query::for_each_witness_vids(
            facts,
            &self.query,
            NullSemantics::Structural,
            &mut |b, _| {
                if b.bound_vids().any(|v| facts.vid_is_null(v)) {
                    null = true;
                    return false;
                }
                let head = cqa_query::head_vids(b, &self.query.head);
                if let Some(candidate) = head.zip(run.cells(first_key, b)) {
                    candidates.insert(candidate);
                }
                true
            },
        );
        if null {
            return None;
        }
        let mut certain: BTreeSet<Vec<Vid>> = BTreeSet::new();
        let mut b = VidBindings::new(self.n_vars);
        let mut pending = candidates.into_iter().peekable();
        while let Some((head, key)) = pending.next() {
            let mut keys = vec![key];
            while let Some((_, key)) = pending.next_if(|(h, _)| *h == head) {
                keys.push(key);
            }
            let head_vars = self.query.head.iter().filter_map(Term::as_var);
            for (v, &vid) in head_vars.zip(&head) {
                b.set(v, vid);
            }
            if run.any_group(&keys, &mut b)? {
                certain.insert(head);
            }
        }
        Some(KeyRun {
            answers: cqa_query::resolve_answers(facts, &self.query.head, &certain),
            rows_read: run.rows_read,
        })
    }
}

fn has_null<F: Facts + ?Sized>(facts: &F, row: &VidRow<'_>) -> bool {
    (0..row.arity())
        .filter_map(|c| row.at(c))
        .any(|v| facts.vid_is_null(v))
}

/// One evaluation of a [`KeyPlan`]. Every check returns `None` once it
/// reads a null (see [`KeyPlan::certain_answers`]).
struct Run<'a, F: Facts + ?Sized> {
    facts: &'a F,
    plan: &'a KeyPlan,
    /// [`KeyPlan::consts`] as `facts` stores them; `None` when no row
    /// holds the constant.
    consts: Vec<Option<Vid>>,
    /// Per step: the base index on the key positions.
    key_index: Vec<Option<Arc<HashIndex>>>,
    /// Per step: the base index on the known positions.
    known_index: Vec<Option<Arc<HashIndex>>>,
    rows_read: u64,
}

impl<F: Facts + ?Sized> Run<'_, F> {
    fn constant(&self, i: usize) -> Option<Vid> {
        self.consts.get(i).copied().flatten()
    }

    /// The vids of `cells` under `b`; `None` when one is unbound or a
    /// constant no row holds.
    fn cells(&self, cells: &[Cell], b: &VidBindings) -> Option<Vec<Vid>> {
        cells
            .iter()
            .map(|c| match c {
                Cell::Const(i) => self.constant(*i),
                Cell::Bound(v) | Cell::Local(v) => b.get(*v),
            })
            .collect()
    }

    /// Does step `i` (and every step after it) hold under `b`? Only
    /// reached for `i ≥ 1`: the first step's key groups come from the
    /// candidates' witnesses ([`Run::any_group`]).
    fn step(&mut self, i: usize, b: &mut VidBindings) -> Option<bool> {
        let plan = self.plan;
        let facts = self.facts;
        let Some(step) = plan.steps.get(i) else {
            return Some(true);
        };
        if step.key_bound {
            let Some(key) = self.cells(&step.key, b) else {
                return Some(false);
            };
            return self.group(i, &key, b);
        }
        // Find the candidate key groups through the known positions; each
        // distinct key is checked once.
        let Some(known) = self.cells(&step.known, b) else {
            return Some(false);
        };
        let mut tried: BTreeSet<Vec<Vid>> = BTreeSet::new();
        let rows = probe_rows(
            facts,
            &step.relation,
            &step.known_pos,
            &known,
            &mut self.known_index[i],
        );
        for (_, row) in rows {
            self.rows_read += 1;
            let at = |(&p, &vid): (&usize, &Vid)| row.at(p) == Some(vid);
            if !step.known_pos.iter().zip(&known).all(at) {
                continue;
            }
            if has_null(facts, &row) {
                return None;
            }
            let Some(key) = row_key(step, &row) else {
                continue;
            };
            if tried.insert(key.clone()) && self.group(i, &key, b)? {
                return Some(true);
            }
        }
        Some(false)
    }

    /// Does the first step hold on one of its key groups `keys`?
    fn any_group(&mut self, keys: &[Vec<Vid>], b: &mut VidBindings) -> Option<bool> {
        for key in keys {
            if self.group(0, key, b)? {
                return Some(true);
            }
        }
        Some(false)
    }

    /// Is the key group `key` of step `i` non-empty, with every member
    /// matching the non-key pattern and making step `i + 1` hold?
    fn group(&mut self, i: usize, key: &[Vid], b: &mut VidBindings) -> Option<bool> {
        let plan = self.plan;
        let facts = self.facts;
        let Some(step) = plan.steps.get(i) else {
            return Some(true);
        };
        for (c, &vid) in step.key.iter().zip(key) {
            if let Cell::Local(v) = c {
                b.set(*v, vid);
            }
        }
        let rows = probe_rows(
            facts,
            &step.relation,
            &step.key_pos,
            key,
            &mut self.key_index[i],
        );
        let mut members = 0usize;
        let mut holds = true;
        for (_, row) in rows {
            self.rows_read += 1;
            let at = |(&p, &vid): (&usize, &Vid)| row.at(p) == Some(vid);
            if !step.key_pos.iter().zip(key).all(at) {
                continue;
            }
            if has_null(facts, &row) {
                return None;
            }
            members += 1;
            let matched = step.pattern.iter().all(|&(p, demand)| {
                let Some(vid) = row.at(p) else {
                    return false;
                };
                match demand {
                    Demand::Const(i) => self.constant(i) == Some(vid),
                    Demand::Equal(v) => b.get(v) == Some(vid),
                    Demand::Bind(y) => {
                        b.set(y, vid);
                        true
                    }
                }
            });
            holds = matched && self.step(i + 1, b)?;
            for &(_, demand) in &step.pattern {
                if let Demand::Bind(y) = demand {
                    b.unset(y);
                }
            }
            if !holds {
                break;
            }
        }
        for c in &step.key {
            if let Cell::Local(v) = c {
                b.unset(*v);
            }
        }
        Some(holds && members > 0)
    }
}

/// `row`'s key, if it fits the step's key pattern: a local variable that
/// repeats across key positions must repeat its vid. (Constants and bound
/// variables were matched through the known positions.)
fn row_key(step: &Step, row: &VidRow<'_>) -> Option<Vec<Vid>> {
    let key: Vec<Vid> = step
        .key_pos
        .iter()
        .map(|&p| row.at(p))
        .collect::<Option<_>>()?;
    let mut firsts: Vec<(Var, Vid)> = Vec::new();
    for (c, &vid) in step.key.iter().zip(&key) {
        if let Cell::Local(v) = c {
            match firsts.iter().find(|(w, _)| w == v) {
                Some(&(_, first)) if first != vid => return None,
                Some(_) => {}
                None => firsts.push((*v, vid)),
            }
        }
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cqa::{consistent_answers, RepairClass};
    use cqa_constraints::{ConstraintSet, KeyConstraint};
    use cqa_query::{eval_fo, parse_query, NullSemantics, UnionQuery};
    use cqa_relation::{tuple, Database, RelationSchema, Tuple};
    use std::collections::BTreeSet;

    fn employee_db() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        db.insert("Employee", tuple!["stowe", 7000]).unwrap();
        db
    }

    fn kp(entries: &[(&str, &[usize])]) -> KeyPositions {
        entries
            .iter()
            .map(|(r, p)| (r.to_string(), p.to_vec()))
            .collect()
    }

    #[test]
    fn q1_rewriting_matches_example_3_4() {
        let q = parse_query("Q(x, y) :- Employee(x, y)").unwrap();
        let keys = kp(&[("Employee", &[0])]);
        let fo = rewrite_key_query(&q, &keys).unwrap();
        let ans = eval_fo(&employee_db(), &fo, NullSemantics::Structural);
        assert_eq!(ans, [tuple!["smith", 3000], tuple!["stowe", 7000]].into());
    }

    #[test]
    fn q2_projection_keeps_page() {
        let q = parse_query("Q(x) :- Employee(x, y)").unwrap();
        let keys = kp(&[("Employee", &[0])]);
        let fo = rewrite_key_query(&q, &keys).unwrap();
        let ans = eval_fo(&employee_db(), &fo, NullSemantics::Structural);
        assert_eq!(
            ans,
            [tuple!["page"], tuple!["smith"], tuple!["stowe"]].into()
        );
    }

    #[test]
    fn two_atom_acyclic_rewriting_agrees_with_reference_cqa() {
        // q(x) :- R(x, y), S(y, z) under keys R[0], S[0].
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A", "B"]))
            .unwrap();
        db.insert("R", tuple![1, 10]).unwrap();
        db.insert("R", tuple![1, 11]).unwrap(); // key conflict on R
        db.insert("R", tuple![2, 12]).unwrap();
        db.insert("S", tuple![10, 100]).unwrap();
        db.insert("S", tuple![11, 101]).unwrap();
        db.insert("S", tuple![12, 102]).unwrap();
        db.insert("S", tuple![12, 103]).unwrap(); // key conflict on S
        let q = parse_query("Q(x) :- R(x, y), S(y, z)").unwrap();
        let keys = kp(&[("R", &[0]), ("S", &[0])]);
        let fo = rewrite_key_query(&q, &keys).unwrap();
        let rewritten = eval_fo(&db, &fo, NullSemantics::Structural);
        let sigma = ConstraintSet::from_iter([
            KeyConstraint::new("R", ["A"]),
            KeyConstraint::new("S", ["A"]),
        ]);
        let reference =
            consistent_answers(&db, &sigma, &UnionQuery::single(q), &RepairClass::Subset).unwrap();
        assert_eq!(rewritten, reference);
        // x = 1: both branches (y=10, y=11) have S entries → certain.
        assert!(rewritten.contains(&tuple![1]));
        // x = 2 is certain too: S(12, ·) exists in every repair.
        assert!(rewritten.contains(&tuple![2]));
    }

    #[test]
    fn cyclic_attack_graph_detected() {
        let q = parse_query("Q() :- R(x, y), S(y, x)").unwrap();
        let keys = kp(&[("R", &[0]), ("S", &[0])]);
        let g = attack_graph(&q, &keys);
        assert!(!g.is_acyclic());
        match rewrite_key_query(&q, &keys) {
            Err(KeyRewriteError::CyclicAttackGraph { witness: (a, b) }) => {
                // The witness must name the two distinct cycle endpoints,
                // not the self-loop the transitive closure adds.
                assert_eq!((a, b), (0, 1));
            }
            other => panic!("expected cyclic error, got {other:?}"),
        }
    }

    #[test]
    fn self_join_rejected() {
        let q = parse_query("Q() :- R(x, y), R(y, x)").unwrap();
        let keys = kp(&[("R", &[0])]);
        assert_eq!(rewrite_key_query(&q, &keys), Err(KeyRewriteError::SelfJoin));
    }

    #[test]
    fn comparisons_rejected() {
        let q = parse_query("Q(x) :- R(x, y), y > 1").unwrap();
        let keys = kp(&[("R", &[0])]);
        assert_eq!(
            rewrite_key_query(&q, &keys),
            Err(KeyRewriteError::UnsupportedFeatures)
        );
    }

    #[test]
    fn constants_in_nonkey_positions() {
        // q(x) :- R(x, 'target'): certain iff every tuple of x's key group
        // has value 'target'.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["K", "V"]))
            .unwrap();
        db.insert("R", tuple![1, "target"]).unwrap();
        db.insert("R", tuple![1, "other"]).unwrap();
        db.insert("R", tuple![2, "target"]).unwrap();
        let q = parse_query("Q(x) :- R(x, 'target')").unwrap();
        let keys = kp(&[("R", &[0])]);
        let fo = rewrite_key_query(&q, &keys).unwrap();
        let ans = eval_fo(&db, &fo, NullSemantics::Structural);
        assert_eq!(ans, [tuple![2]].into());
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("R", ["K"])]);
        let reference =
            consistent_answers(&db, &sigma, &UnionQuery::single(q), &RepairClass::Subset).unwrap();
        assert_eq!(ans, reference);
    }

    #[test]
    fn boolean_query_certainty() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["K", "V"]))
            .unwrap();
        db.insert("R", tuple![1, "a"]).unwrap();
        db.insert("R", tuple![1, "b"]).unwrap();
        let keys = kp(&[("R", &[0])]);
        // ∃x, y R(x, y) is certainly true (some tuple survives per group).
        let q = parse_query("Q() :- R(x, y)").unwrap();
        let fo = rewrite_key_query(&q, &keys).unwrap();
        let ans = eval_fo(&db, &fo, NullSemantics::Structural);
        assert_eq!(ans, BTreeSet::from([Tuple::new(vec![])]));
        // R(x, 'a') is not certain.
        let q2 = parse_query("Q() :- R(x, 'a')").unwrap();
        let fo2 = rewrite_key_query(&q2, &keys).unwrap();
        assert!(eval_fo(&db, &fo2, NullSemantics::Structural).is_empty());
    }

    #[test]
    fn randomized_agreement_with_reference_cqa() {
        // Deterministic pseudo-random sweep: the rewriting must agree with
        // repair-based CQA on every generated instance.
        let keys = kp(&[("R", &[0]), ("S", &[0])]);
        let q = parse_query("Q(x) :- R(x, y), S(y, z)").unwrap();
        let sigma = ConstraintSet::from_iter([
            KeyConstraint::new("R", ["A"]),
            KeyConstraint::new("S", ["A"]),
        ]);
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _case in 0..25 {
            let mut db = Database::new();
            db.create_relation(RelationSchema::new("R", ["A", "B"]))
                .unwrap();
            db.create_relation(RelationSchema::new("S", ["A", "B"]))
                .unwrap();
            for _ in 0..6 {
                db.insert("R", tuple![next(3) as i64, next(4) as i64])
                    .unwrap();
            }
            for _ in 0..6 {
                db.insert("S", tuple![next(4) as i64, next(3) as i64])
                    .unwrap();
            }
            let fo = rewrite_key_query(&q, &keys).unwrap();
            let rewritten = eval_fo(&db, &fo, NullSemantics::Structural);
            let reference = consistent_answers(
                &db,
                &sigma,
                &UnionQuery::single(q.clone()),
                &RepairClass::Subset,
            )
            .unwrap();
            assert_eq!(rewritten, reference, "mismatch on instance:\n{db}");
        }
    }

    #[test]
    fn key_plan_refuses_what_the_rewriting_refuses() {
        let keys = kp(&[("R", &[0]), ("S", &[0])]);
        for text in [
            "Q() :- R(x, y), S(y, x)",
            "Q() :- R(x, y), R(y, x)",
            "Q(x) :- R(x, y), y > 1",
            "Q(x) :- R(x, y), not S(y, x)",
            "Q(x) :- R(x, y), S(y, z)",
        ] {
            let q = parse_query(text).unwrap();
            assert_eq!(
                KeyPlan::compile(&q, &keys).err(),
                rewrite_key_query(&q, &keys).err(),
                "{text}"
            );
        }
    }

    /// The compiled plan against the interpreted rewriting and the repair
    /// fold. `S(z, y)` and `S(z, w)` leave the second step's key unbound,
    /// so its key groups come from a probe on the known positions (a scan
    /// when none is known); the 40-row instances take the index probes.
    #[test]
    fn key_plan_matches_interpreted_rewriting_and_reference() {
        let keys = kp(&[("R", &[0]), ("S", &[0])]);
        let sigma = ConstraintSet::from_iter([
            KeyConstraint::new("R", ["A"]),
            KeyConstraint::new("S", ["A"]),
        ]);
        let queries: Vec<ConjunctiveQuery> = [
            "Q(x) :- R(x, y), S(y, z)",
            "Q(x) :- R(x, y), S(z, y)",
            "Q() :- R(x, y), S(z, w)",
            "Q(x, y) :- R(x, y)",
            "Q(z) :- R(x, y), S(y, z)",
            "Q(y) :- R(x, y), S(x, y)",
            "Q(x) :- R(x, 2), S(2, x)",
        ]
        .iter()
        .map(|text| parse_query(text).unwrap())
        .collect();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for case in 0..30 {
            let mut db = Database::new();
            db.create_relation(RelationSchema::new("R", ["A", "B"]))
                .unwrap();
            db.create_relation(RelationSchema::new("S", ["A", "B"]))
                .unwrap();
            if case % 3 == 0 {
                // 36 clean keys per relation on top of the small random
                // part below: past the index threshold, few conflicts.
                for i in 10..46 {
                    db.insert("R", tuple![i, next(6) as i64]).unwrap();
                    db.insert("S", tuple![i, next(6) as i64]).unwrap();
                }
            }
            for _ in 0..6 {
                db.insert("R", tuple![next(4) as i64, next(4) as i64])
                    .unwrap();
                db.insert("S", tuple![next(4) as i64, next(4) as i64])
                    .unwrap();
            }
            for q in &queries {
                let compiled = KeyPlan::compile(q, &keys)
                    .unwrap()
                    .certain_answers(&db)
                    .unwrap()
                    .answers;
                let fo = rewrite_key_query(q, &keys).unwrap();
                let interpreted = eval_fo(&db, &fo, NullSemantics::Structural);
                let reference = consistent_answers(
                    &db,
                    &sigma,
                    &UnionQuery::single(q.clone()),
                    &RepairClass::Subset,
                )
                .unwrap();
                assert_eq!(compiled, reference, "{q} on:\n{db}");
                // The interpreted rewriting drops head constants.
                if q.head.iter().all(|t| t.as_var().is_some()) {
                    assert_eq!(compiled, interpreted, "{q} on:\n{db}");
                }
            }
        }
    }

    /// `cqa_bench::key_conflict_instance(20_000, 200, 2, 1)`, rebuilt here
    /// because the bench crate depends on this one: 20,000 clean keys with
    /// random values, then 200 keys from 1,000,000 up with values 0 and 1.
    fn key_conflict_instance() -> Database {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1);
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        for i in 0..20_000i64 {
            db.insert("T", tuple![i, rng.gen_range(0..1_000_000i64)])
                .unwrap();
        }
        for i in 0..200i64 {
            for v in 0..2i64 {
                db.insert("T", tuple![1_000_000 + i, v]).unwrap();
            }
        }
        db
    }

    /// The work counter pins "probe, never scan" without a clock: a point
    /// query reads its key group only, and a projection over the whole
    /// relation reads each key group once.
    #[test]
    fn key_plan_reads_only_the_probed_key_groups() {
        let db = key_conflict_instance();
        let keys = kp(&[("T", &[0])]);
        let run = |text: &str| {
            KeyPlan::compile(&parse_query(text).unwrap(), &keys)
                .unwrap()
                .certain_answers(&db)
                .unwrap()
        };
        let clean = run("Q(y) :- T(17, y)");
        let plain = cqa_query::eval_cq(
            &db,
            &parse_query("Q(y) :- T(17, y)").unwrap(),
            NullSemantics::Structural,
        );
        assert_eq!(clean.answers, plain);
        assert_eq!(clean.answers.len(), 1);
        assert!(clean.rows_read <= 4, "clean key read {}", clean.rows_read);
        let conflicting = run("Q(y) :- T(1000000, y)");
        assert!(conflicting.answers.is_empty());
        assert!(
            conflicting.rows_read <= 4,
            "conflicting key read {}",
            conflicting.rows_read
        );
        let all = run("Q(x) :- T(x, y)");
        assert_eq!(all.answers.len(), 20_200);
        let candidates = 20_200;
        assert!(
            all.rows_read <= 2 * candidates,
            "projection read {} rows for {candidates} candidates",
            all.rows_read
        );
    }
}
