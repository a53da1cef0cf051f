//! Evaluation of first-order queries under active-domain semantics.
//!
//! The consistent-answer *rewritings* of the paper (Examples 2.2 and 3.4, and
//! the key-constraint rewritings of §3.2) are first-order but not conjunctive:
//! they contain `¬∃` subformulas. This module evaluates any [`FoQuery`] by
//! enumerating bindings from positive atoms wherever possible and falling
//! back to the active domain only when a subformula cannot generate bindings
//! (e.g. a negation over unbound variables). For the formulas the rewriters
//! emit, the fallback never triggers and evaluation is join-like.

use crate::ast::{Atom, Fo, FoQuery, Term, Var};
use crate::eval::{match_atom, Bindings, NullSemantics};
use cqa_relation::{Database, Tuple, Value};
use std::cell::OnceCell;
use std::collections::BTreeSet;

/// Evaluation context: database, semantics, and the domain for fallback
/// enumeration, built on the first fallback (most formulas never need it).
struct Ctx<'a> {
    db: &'a Database,
    mode: NullSemantics,
    formula: &'a Fo,
    domain: OnceCell<Vec<Value>>,
}

impl<'a> Ctx<'a> {
    fn new(db: &'a Database, mode: NullSemantics, q: &'a FoQuery) -> Ctx<'a> {
        Ctx {
            db,
            mode,
            formula: &q.formula,
            domain: OnceCell::new(),
        }
    }

    /// The active domain plus the formula's constants, in value order.
    fn domain(&self) -> &[Value] {
        self.domain.get_or_init(|| {
            let mut dom: BTreeSet<Value> = self.db.active_domain();
            collect_constants(self.formula, &mut dom);
            dom.into_iter().collect()
        })
    }

    /// Is the closed-under-`binding` formula `fo` true?
    fn sat(&self, fo: &Fo, binding: &mut Bindings) -> bool {
        match fo {
            Fo::Atom(atom) => self.atom_matches(atom, binding),
            Fo::Cmp(c) => {
                let (Some(a), Some(b)) = (binding.resolve(&c.left), binding.resolve(&c.right))
                else {
                    return false; // unbound comparison: vacuously unsatisfied
                };
                self.mode.cmp(c.op, &a, &b)
            }
            Fo::And(parts) => parts.iter().all(|p| self.sat(p, binding)),
            Fo::Or(parts) => parts.iter().any(|p| self.sat(p, binding)),
            Fo::Not(g) => !self.sat(g, binding),
            Fo::Exists(_, g) => {
                // `enumerate` leaves `binding` untouched on return.
                let mut found = false;
                self.enumerate(g, binding, &mut |_, _| {
                    found = true;
                    false
                });
                found
            }
        }
    }

    fn atom_matches(&self, atom: &Atom, binding: &mut Bindings) -> bool {
        let Some(rel) = self.db.relation(&atom.relation) else {
            return false;
        };
        for (_, t) in rel.iter() {
            if let Some(newly) = match_atom(atom, t, binding, self.mode) {
                for v in newly {
                    binding.unset(v);
                }
                return true;
            }
        }
        false
    }

    /// Enumerate extensions of `binding` satisfying `fo`, invoking
    /// `sink(bound_vars, binding)` once per extension (with the extension
    /// applied to `binding`; it is rolled back afterwards). `sink` returns
    /// `false` to stop. Returns `false` if stopped early.
    fn enumerate(
        &self,
        fo: &Fo,
        binding: &mut Bindings,
        sink: &mut dyn FnMut(&BTreeSet<Var>, &mut Bindings) -> bool,
    ) -> bool {
        match fo {
            Fo::Atom(atom) => {
                let Some(rel) = self.db.relation(&atom.relation) else {
                    return true;
                };
                let vars: BTreeSet<Var> = atom.vars().collect();
                for (_, t) in rel.iter() {
                    if let Some(newly) = match_atom(atom, t, binding, self.mode) {
                        let go = sink(&vars, binding);
                        for v in newly {
                            binding.unset(v);
                        }
                        if !go {
                            return false;
                        }
                    }
                }
                true
            }
            Fo::Cmp(c) => {
                // An equality with exactly one unbound variable can generate.
                if c.op == crate::ast::CmpOp::Eq {
                    let lv = c.left.as_var().filter(|v| binding.get(*v).is_none());
                    let rv = c.right.as_var().filter(|v| binding.get(*v).is_none());
                    match (lv, rv, binding.resolve(&c.right), binding.resolve(&c.left)) {
                        (Some(v), None, Some(val), _) | (None, Some(v), _, Some(val)) => {
                            if self.mode == NullSemantics::Sql && val.is_null() {
                                return true;
                            }
                            binding.set(v, val);
                            let vars: BTreeSet<Var> = [v].into();
                            let go = sink(&vars, binding);
                            binding.unset(v);
                            return go;
                        }
                        _ => {}
                    }
                }
                // Otherwise it is a filter (or needs fallback).
                let unbound: Vec<Var> = fo
                    .free_vars()
                    .into_iter()
                    .filter(|v| binding.get(*v).is_none())
                    .collect();
                if unbound.is_empty() {
                    if self.sat(fo, binding) {
                        return sink(&BTreeSet::new(), binding);
                    }
                    return true;
                }
                self.domain_fallback(fo, &unbound, binding, sink)
            }
            Fo::And(parts) => self.enumerate_and(parts, binding, sink),
            Fo::Or(parts) => {
                for p in parts {
                    if !self.enumerate(p, binding, sink) {
                        return false;
                    }
                }
                true
            }
            Fo::Exists(vars, g) => {
                // Enumerate the body, then mask the quantified variables so
                // callers never observe them; dedupe is the caller's concern
                // (answers are collected into sets).
                self.enumerate(g, binding, &mut |bound, b| {
                    let visible: BTreeSet<Var> = bound
                        .iter()
                        .copied()
                        .filter(|v| !vars.contains(v))
                        .collect();
                    sink(&visible, b)
                })
            }
            Fo::Not(_) => {
                let unbound: Vec<Var> = fo
                    .free_vars()
                    .into_iter()
                    .filter(|v| binding.get(*v).is_none())
                    .collect();
                if unbound.is_empty() {
                    if self.sat(fo, binding) {
                        return sink(&BTreeSet::new(), binding);
                    }
                    return true;
                }
                self.domain_fallback(fo, &unbound, binding, sink)
            }
        }
    }

    /// Conjunction: repeatedly pick a conjunct that is fully bound (filter) or
    /// can generate (atom/equality/disjunction/quantifier); fall back to the
    /// active domain only if stuck.
    fn enumerate_and(
        &self,
        parts: &[Fo],
        binding: &mut Bindings,
        sink: &mut dyn FnMut(&BTreeSet<Var>, &mut Bindings) -> bool,
    ) -> bool {
        // Choose processing order once, greedily, by a static heuristic:
        // atoms first (generators), then equalities, then everything else;
        // filters are applied as soon as their variables are bound, which the
        // recursive driver below handles naturally.
        let mut order: Vec<&Fo> = parts.iter().collect();
        order.sort_by_key(|p| match p {
            Fo::Atom(_) => 0,
            Fo::Exists(_, _) => 1,
            Fo::Or(_) | Fo::And(_) => 2,
            Fo::Cmp(_) => 3,
            Fo::Not(_) => 4,
        });
        self.and_driver(&order, 0, binding, &mut BTreeSet::new(), sink)
    }

    fn and_driver(
        &self,
        order: &[&Fo],
        idx: usize,
        binding: &mut Bindings,
        bound_acc: &mut BTreeSet<Var>,
        sink: &mut dyn FnMut(&BTreeSet<Var>, &mut Bindings) -> bool,
    ) -> bool {
        if idx == order.len() {
            return sink(&bound_acc.clone(), binding);
        }
        let part = order[idx];
        // Fast path: fully bound conjunct is a filter.
        let unbound: Vec<Var> = part
            .free_vars()
            .into_iter()
            .filter(|v| binding.get(*v).is_none())
            .collect();
        if unbound.is_empty() {
            if self.sat(part, binding) {
                return self.and_driver(order, idx + 1, binding, bound_acc, sink);
            }
            return true;
        }
        let mut keep_going = true;
        self.enumerate(part, binding, &mut |bound, b| {
            let added: Vec<Var> = bound
                .iter()
                .copied()
                .filter(|v| bound_acc.insert(*v))
                .collect();
            keep_going = self.and_driver(order, idx + 1, b, bound_acc, sink);
            for v in added {
                bound_acc.remove(&v);
            }
            keep_going
        }) && keep_going
    }

    /// Enumerate `unbound` over the active domain, keeping assignments that
    /// satisfy `fo`. Exponential in `unbound.len()`; only reached for
    /// domain-dependent formulas.
    fn domain_fallback(
        &self,
        fo: &Fo,
        unbound: &[Var],
        binding: &mut Bindings,
        sink: &mut dyn FnMut(&BTreeSet<Var>, &mut Bindings) -> bool,
    ) -> bool {
        fn go(
            ctx: &Ctx<'_>,
            fo: &Fo,
            unbound: &[Var],
            depth: usize,
            binding: &mut Bindings,
            sink: &mut dyn FnMut(&BTreeSet<Var>, &mut Bindings) -> bool,
        ) -> bool {
            if depth == unbound.len() {
                if ctx.sat(fo, binding) {
                    let vars: BTreeSet<Var> = unbound.iter().copied().collect();
                    return sink(&vars, binding);
                }
                return true;
            }
            for val in ctx.domain() {
                binding.set(unbound[depth], val.clone());
                let go_on = go(ctx, fo, unbound, depth + 1, binding, sink);
                binding.unset(unbound[depth]);
                if !go_on {
                    return false;
                }
            }
            true
        }
        go(self, fo, unbound, 0, binding, sink)
    }
}

fn collect_constants(fo: &Fo, out: &mut BTreeSet<Value>) {
    match fo {
        Fo::Atom(a) => {
            for t in &a.terms {
                if let Term::Const(v) = t {
                    out.insert(v.clone());
                }
            }
        }
        Fo::Cmp(c) => {
            for t in [&c.left, &c.right] {
                if let Term::Const(v) = t {
                    out.insert(v.clone());
                }
            }
        }
        Fo::And(fs) | Fo::Or(fs) => fs.iter().for_each(|g| collect_constants(g, out)),
        Fo::Not(g) => collect_constants(g, out),
        Fo::Exists(_, g) => collect_constants(g, out),
    }
}

/// Evaluate an FO query: the set of answer tuples over its free variables.
pub fn eval_fo(db: &Database, q: &FoQuery, mode: NullSemantics) -> BTreeSet<Tuple> {
    let ctx = Ctx::new(db, mode, q);
    let mut out = BTreeSet::new();
    let mut binding = Bindings::new(
        q.vars
            .len()
            .max(q.free.iter().map(|v| v.0 as usize + 1).max().unwrap_or(0)),
    );
    if q.free.is_empty() {
        if ctx.sat(&q.formula, &mut binding) {
            out.insert(Tuple::new(Vec::new()));
        }
        return out;
    }
    ctx.enumerate(&q.formula, &mut binding, &mut |_, b| {
        let unbound: Vec<Var> = q
            .free
            .iter()
            .copied()
            .filter(|v| b.get(*v).is_none())
            .collect();
        if unbound.is_empty() {
            if let Some(t) = b.project(&q.free.iter().map(|v| Term::Var(*v)).collect::<Vec<_>>()) {
                out.insert(t);
            }
        } else {
            // Domain-dependent answer variables: expand over the domain,
            // keeping assignments under which the formula still holds.
            let mut scratch = b.clone();
            ctx.domain_fallback(&q.formula, &unbound, &mut scratch, &mut |_, b2| {
                if let Some(t) =
                    b2.project(&q.free.iter().map(|v| Term::Var(*v)).collect::<Vec<_>>())
                {
                    out.insert(t);
                }
                true
            });
        }
        true
    });
    out
}

/// Does a Boolean FO query hold?
pub fn holds_fo(db: &Database, q: &FoQuery, mode: NullSemantics) -> bool {
    debug_assert!(q.free.is_empty(), "holds_fo expects a Boolean query");
    let ctx = Ctx::new(db, mode, q);
    let mut binding = Bindings::new(q.vars.len());
    ctx.sat(&q.formula, &mut binding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_fo, parse_query};
    use cqa_relation::{tuple, RelationSchema};

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

    #[test]
    fn example_3_4_rewriting_returns_consistent_answers() {
        // Q'(x, y): Employee(x, y) ∧ ¬∃z(Employee(x, z) ∧ z ≠ y)
        let q = parse_fo("x, y : Employee(x, y) & !exists z (Employee(x, z) & z != y)").unwrap();
        let ans = eval_fo(&employee_db(), &q, NullSemantics::Structural);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&tuple!["smith", 3000]));
        assert!(ans.contains(&tuple!["stowe", 7000]));
    }

    #[test]
    fn plain_cq_via_fo_matches_cq_eval() {
        let db = employee_db();
        let fo = parse_fo("x : exists y (Employee(x, y))").unwrap();
        let cq = parse_query("Q(x) :- Employee(x, y)").unwrap();
        let a = eval_fo(&db, &fo, NullSemantics::Structural);
        let b = crate::eval::eval_cq(&db, &cq, NullSemantics::Structural);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn boolean_fo() {
        let db = employee_db();
        let q = parse_fo("exists x, y, z (Employee(x, y) & Employee(x, z) & y != z)").unwrap();
        assert!(holds_fo(&db, &q, NullSemantics::Structural));
        let q2 = parse_fo("exists x (Employee(x, 3000) & Employee(x, 5000))").unwrap();
        assert!(!holds_fo(&db, &q2, NullSemantics::Structural));
    }

    #[test]
    fn disjunction() {
        let db = employee_db();
        let q = parse_fo("x : exists y (Employee(x, y) & (y = 3000 | y = 7000))").unwrap();
        let ans = eval_fo(&db, &q, NullSemantics::Structural);
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn negation_with_free_vars_uses_domain() {
        // "names x such that x is not an employee name" over the active
        // domain — domain-dependent, exercises the fallback.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("P", ["A"])).unwrap();
        db.create_relation(RelationSchema::new("Q", ["A"])).unwrap();
        db.insert("P", tuple!["a"]).unwrap();
        db.insert("P", tuple!["b"]).unwrap();
        db.insert("Q", tuple!["a"]).unwrap();
        let q = parse_fo("x : P(x) & !Q(x)").unwrap();
        let ans = eval_fo(&db, &q, NullSemantics::Structural);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple!["b"]));
    }

    #[test]
    fn equality_generates_bindings() {
        let db = employee_db();
        let q = parse_fo("x, y : Employee(x, y) & x = 'smith'").unwrap();
        let ans = eval_fo(&db, &q, NullSemantics::Structural);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple!["smith", 3000]));
    }

    #[test]
    fn sql_mode_blocks_null_joins_in_fo() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        db.insert("R", Tuple::new(vec![Value::str("a"), Value::NULL]))
            .unwrap();
        db.insert("S", Tuple::new(vec![Value::NULL])).unwrap();
        let q = parse_fo("exists x, y (R(x, y) & S(y))").unwrap();
        assert!(!holds_fo(&db, &q, NullSemantics::Sql));
        assert!(holds_fo(&db, &q, NullSemantics::Structural));
    }

    #[test]
    fn nested_not_exists_chain() {
        // Employees earning the unique maximum salary:
        // Employee(x, y) ∧ ¬∃u,v(Employee(u, v) ∧ v > y)
        let q = parse_fo("x, y : Employee(x, y) & !exists u, v (Employee(u, v) & v > y)").unwrap();
        let ans = eval_fo(&employee_db(), &q, NullSemantics::Structural);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple!["page", 8000]));
    }

    #[test]
    fn empty_relation_fo() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("E", ["A"])).unwrap();
        let q = parse_fo("x : E(x)").unwrap();
        assert!(eval_fo(&db, &q, NullSemantics::Structural).is_empty());
        let qb = parse_fo("!exists x (E(x))").unwrap();
        assert!(holds_fo(&db, &qb, NullSemantics::Structural));
    }
}

#[cfg(test)]
mod domain_dependence_tests {
    //! Domain-dependent formulas fall back to active-domain enumeration;
    //! these tests pin down that behaviour (it is the classical
    //! active-domain semantics, documented rather than hidden).

    use super::*;
    use crate::parser::parse_fo;
    use cqa_relation::{tuple, Database, RelationSchema};

    fn db() -> Database {
        let mut d = Database::new();
        d.create_relation(RelationSchema::new("P", ["A"])).unwrap();
        d.create_relation(RelationSchema::new("R", ["A"])).unwrap();
        d.insert("P", tuple!["a"]).unwrap();
        d.insert("P", tuple!["b"]).unwrap();
        d.insert("R", tuple!["c"]).unwrap();
        d
    }

    #[test]
    fn disjunction_with_unbinding_branch_expands_over_domain() {
        // y : P(y) | R('c') — when R(c) holds, *every* active-domain value
        // satisfies the formula (classical active-domain semantics).
        let q = parse_fo("y : P(y) | R('c')").unwrap();
        let ans = eval_fo(&db(), &q, NullSemantics::Structural);
        assert_eq!(ans, [tuple!["a"], tuple!["b"], tuple!["c"]].into());
        // Without the witness for the right branch, only P's members remain.
        let mut d2 = db();
        let tid = d2.relation("R").unwrap().tid_of(&tuple!["c"]).unwrap();
        d2.delete(tid).unwrap();
        let ans2 = eval_fo(&d2, &q, NullSemantics::Structural);
        assert_eq!(ans2, [tuple!["a"], tuple!["b"]].into());
    }

    #[test]
    fn pure_negation_is_domain_complement() {
        let q = parse_fo("x : !P(x)").unwrap();
        let ans = eval_fo(&db(), &q, NullSemantics::Structural);
        // Active domain {a, b, c} minus P = {c}.
        assert_eq!(ans, [tuple!["c"]].into());
    }

    #[test]
    fn constants_extend_the_domain() {
        // 'z' appears only in the formula, not in the data; the domain
        // includes formula constants, so the complement sees it.
        let q = parse_fo("x : !P(x) & x != 'z'").unwrap();
        let ans = eval_fo(&db(), &q, NullSemantics::Structural);
        assert_eq!(ans, [tuple!["c"]].into());
        let q2 = parse_fo("x : !P(x) & x = 'z'").unwrap();
        let ans2 = eval_fo(&db(), &q2, NullSemantics::Structural);
        assert_eq!(ans2, [tuple!["z"]].into());
    }
}
