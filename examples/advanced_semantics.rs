//! The survey's "further developments" in one tour: prioritized repairs
//! ([103]), update-based repairs ([108]), incremental repairs under updates
//! ([87]), AR/IAR inconsistency-tolerant semantics (§8), numerical repairs
//! ([20, 62]), causal effect ([102]), and the strategy planner.
//!
//! Run with `cargo run --example advanced_semantics`.

use inconsistent_db::causality::causal_effects;
use inconsistent_db::cleaning::{numeric_repair, NumericConstraint};
use inconsistent_db::core::{
    answer, globally_optimal_repairs, iar_answers, pareto_optimal_repairs, repairs_after_insert,
    update_repairs, PriorityRelation, Request, Strategy,
};
use inconsistent_db::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A payroll with two conflicting groups.
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("Emp", ["Name", "Salary"]))?;
    db.insert("Emp", tuple!["page", 5000])?; // ι1 (from HR)
    db.insert("Emp", tuple!["page", 8000])?; // ι2 (from a stale import)
    db.insert("Emp", tuple!["ruiz", 4000])?; // ι3 (from HR)
    db.insert("Emp", tuple!["ruiz", 4400])?; // ι4 (from a stale import)
    db.insert("Emp", tuple!["smith", 3000])?; // ι5
    let sigma = ConstraintSet::from_iter([KeyConstraint::new("Emp", ["Name"])]);

    // --- Prioritized repairs: trust HR over the import --------------------
    let mut trust = PriorityRelation::new();
    trust.prefer(Tid(1), Tid(2)).prefer(Tid(3), Tid(4));
    println!("All S-repairs: {}", s_repairs(&db, &sigma)?.len());
    let pareto = pareto_optimal_repairs(&db, &sigma, &trust)?;
    println!("Pareto-optimal under the trust priority: {}", pareto.len());
    for r in &pareto {
        println!("  {r}");
    }
    let global = globally_optimal_repairs(&db, &sigma, &trust)?;
    println!("Globally-optimal: {}", global.len());

    // --- Update repairs: overwrite instead of delete ----------------------
    let fd = FunctionalDependency::new("Emp", ["Name"], ["Salary"]);
    let updates = update_repairs(&db, &fd, None)?;
    println!(
        "\nUpdate repairs (domain values, every tuple survives): {}",
        updates.len()
    );
    for u in updates.iter().take(2) {
        let ops: Vec<String> = u.updates.iter().map(|c| c.to_string()).collect();
        println!("  {{{}}}", ops.join(", "));
    }

    // --- AR vs IAR ---------------------------------------------------------
    let q_names = UnionQuery::single(parse_query("Q(x) :- Emp(x, y)")?);
    let ar = consistent_answers(&db, &sigma, &q_names, &RepairClass::Subset)?;
    let iar = iar_answers(&db, &sigma, &q_names)?;
    println!("\nAR answers (true in every repair): {:?}", names(&ar));
    println!("IAR answers (true in the intersection): {:?}", names(&iar));

    // --- Strategy planner ---------------------------------------------------
    let planned = answer(
        &std::sync::Arc::new(db.clone()),
        &sigma,
        None,
        &Request::certain(&q_names),
        &cqa_exec::Budget::unlimited(),
    )?
    .into_value();
    let how = match planned.strategy {
        Strategy::FoRewriting => "FO rewriting",
        Strategy::DirectEvaluation => "direct evaluation",
        Strategy::RepairEnumeration { .. } => "repair enumeration",
        Strategy::FactoredEnumeration { .. } => "factored repair enumeration",
    };
    println!("Planner answered via: {how}");

    // --- Incremental repairs under updates ---------------------------------
    let mut clean_db = db.clone();
    for t in [Tid(2), Tid(4)] {
        clean_db.delete(t)?;
    }
    let inc = repairs_after_insert(&clean_db, &sigma, &[("Emp".into(), tuple!["smith", 9999])])?;
    println!(
        "\nAfter inserting a conflicting smith row: {} local repairs (untouched rows stay put)",
        inc.repairs.len()
    );

    // --- Numerical repair under an aggregate constraint --------------------
    let budget = NumericConstraint::sum_at_most("Emp", "Salary", 10000.0);
    let fixed = numeric_repair(&clean_db, &budget)?;
    println!(
        "Budget repair: L1 distance {:.0} across {} cell(s)",
        fixed.l1_distance,
        fixed.fixes.len()
    );

    // --- Causal effect ------------------------------------------------------
    let q = UnionQuery::single(parse_query("Q() :- Emp(x, y), Emp(x, z), y != z")?);
    let endo = db.tids();
    println!("\nCausal effects on \"some key is violated\":");
    for (tid, effect) in causal_effects(&db, &q, &endo) {
        println!("  {tid}: {effect:+.3}");
    }

    Ok(())
}

fn names(ts: &std::collections::BTreeSet<Tuple>) -> Vec<String> {
    ts.iter().map(|t| t.at(0).render().into_owned()).collect()
}
