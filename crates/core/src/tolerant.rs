//! Inconsistency-tolerant semantics from the OBDA world (§8 of the paper;
//! Lembo et al. \[79\], Bienvenu \[29\]): **AR** and **IAR** answers, expressed
//! over relational repairs.
//!
//! * **AR** ("ABox Repair") semantics is exactly consistent query
//!   answering over S-repairs: true in every repair
//!   ([`consistent_answers`](crate::cqa::consistent_answers) with
//!   [`RepairClass::Subset`](crate::cqa::RepairClass::Subset)).
//! * **IAR** ("Intersection of ABox Repairs") semantics evaluates the query
//!   over the *intersection* of all repairs — the consistent core. IAR is a
//!   sound approximation of AR (`IAR ⊆ AR`) computable without enumerating
//!   answers per repair, which is why the OBDA literature uses it as the
//!   tractable fallback.

use crate::srepair::consistent_core;
use cqa_constraints::ConstraintSet;
use cqa_query::{eval_ucq, NullSemantics, UnionQuery};
use cqa_relation::{Database, RelationError, Tuple};
use std::collections::BTreeSet;

/// IAR answers: evaluate over the intersection of all S-repairs.
pub fn iar_answers(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
) -> Result<BTreeSet<Tuple>, RelationError> {
    let core = consistent_core(db, sigma)?;
    let core_db = db.restricted_to(&core);
    Ok(eval_ucq(&core_db, query, NullSemantics::Sql)
        .into_iter()
        .filter(|t| !t.has_null())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cqa::{consistent_answers, RepairClass};
    use cqa_constraints::KeyConstraint;
    use cqa_query::parse_query;
    use cqa_relation::{tuple, RelationSchema};

    fn db() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Employee", ["Name"])]);
        (db, sigma)
    }

    #[test]
    fn iar_is_contained_in_ar() {
        let (db, sigma) = db();
        // Projection query: AR keeps `page` (some salary in every repair)
        // but IAR drops it (no page row is in the core).
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let ar = consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        let iar = iar_answers(&db, &sigma, &q).unwrap();
        assert!(iar.is_subset(&ar));
        assert!(ar.contains(&tuple!["page"]));
        assert!(!iar.contains(&tuple!["page"]));
        assert!(iar.contains(&tuple!["smith"]));
    }

    #[test]
    fn on_full_rows_ar_and_iar_agree_for_keys() {
        let (db, sigma) = db();
        let q = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let ar = consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        let iar = iar_answers(&db, &sigma, &q).unwrap();
        // A full row is in every key repair iff its key group is a
        // singleton iff it is in the core.
        assert_eq!(ar, iar);
        assert_eq!(ar, [tuple!["smith", 3000]].into());
    }

    #[test]
    fn consistent_db_both_equal_plain_eval() {
        let (mut db, sigma) = db();
        db.delete(cqa_relation::Tid(2)).unwrap();
        let q = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let plain = cqa_query::eval_ucq(&db, &q, NullSemantics::Structural);
        assert_eq!(
            consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap(),
            plain
        );
        assert_eq!(iar_answers(&db, &sigma, &q).unwrap(), plain);
    }
}
