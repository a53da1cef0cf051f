//! The F18 Orders/Cities instance with a fixed degree of inconsistency.
//!
//! F18's generator (`cqa_bench::workload::f18_data`) sends each order to a
//! random city with probability 1%, so the number of dirty orders, and with
//! it the number of conflict hyper-edges, varies by about ±7% from seed to
//! seed. Here the seed decides *which* orders are dirty and where they
//! point, never *how many*: every order first goes to its customer's home
//! city, then exactly `n / 100` seeded orders move to another city. Names,
//! statuses and amounts are F18's.

use cqa_bench::workload::{f18_columnar, f18_data, F18Data};
use cqa_constraints::ConstraintSet;
use cqa_relation::Database;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// `n` orders, exactly 1% of them away from their customer's home city.
pub fn f18(n: usize, seed: u64) -> (Database, ConstraintSet) {
    let mut data: F18Data = f18_data(n, seed);
    // The home city is where most of a customer's orders go.
    let mut seen: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
    for (_, cust, city, _, _) in &data.orders {
        *seen.entry(cust).or_default().entry(city).or_default() += 1;
    }
    let home: BTreeMap<String, String> = seen
        .into_iter()
        .map(|(cust, cities)| {
            let (city, _) = cities
                .into_iter()
                .max_by_key(|&(city, count)| (count, std::cmp::Reverse(city)))
                .expect("a customer has orders");
            (cust.to_string(), city.to_string())
        })
        .collect();
    let cities: Vec<String> = data.cities.iter().map(|(c, _)| c.clone()).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0f18);
    let mut order: Vec<usize> = (0..data.orders.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let dirty = n / 100;
    for (rank, &i) in order.iter().enumerate() {
        let row = &mut data.orders[i];
        let home_city = &home[&row.1];
        row.2 = if rank < dirty {
            loop {
                let c = &cities[rng.gen_range(0..cities.len())];
                if c != home_city {
                    break c.clone();
                }
            }
        } else {
            home_city.clone()
        };
    }
    f18_columnar(&data)
}
