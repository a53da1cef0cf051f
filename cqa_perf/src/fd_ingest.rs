//! `fd_ingest`: one closed-loop client streams mutations into a warm
//! `repaird` session over the F18 Orders/Cities instance, whose Σ is the
//! FD-shaped denial `Cust → City` plus `Amount > 9900`. Every mutation is
//! maintained through the delta pipeline; no query runs. With one client the
//! reply transcript is deterministic, and it must match, byte for byte, a
//! replay of the same operations on an in-process `CqaSession`.

use crate::client::{boot, session_body, Conn};
use crate::mirror::Mirror;
use crate::ops::{result_tid, Op};
use crate::serving::{closed_loop, Model, OpRecord, Tracing};
use crate::stats::Report;
use crate::{Args, ServerRun};
use cqa_core::CqaSession;
use cqa_exec::Budget;
use cqa_relation::{Tid, Tuple, Value};
use cqa_server::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const ORDERS: usize = 20_000;
/// Inserted orders still live; beyond it the client deletes before it
/// inserts again, so the hyper-graph stays near its initial size.
const MAX_PENDING: usize = 8;
pub const SIGMA: &str = "dc Orders(o, c, x, s, a), Orders(p, c, y, t, b), x < y\n\
                         dc Orders(o, c, x, s, a), a > 9900\n";

struct IngestModel {
    /// The instance's original orders: `(tid, row)`.
    orders: Vec<(u64, Tuple)>,
    cities: Vec<Value>,
    /// Tids of inserted orders not yet deleted.
    pending: Vec<u64>,
    next_oid: i64,
}

impl Model for IngestModel {
    fn next(&mut self, rng: &mut SmallRng) -> Op {
        let mut kind = rng.gen_range(0..3);
        if kind == 0 && self.pending.len() >= MAX_PENDING {
            kind = 2;
        }
        if kind == 2 && self.pending.is_empty() {
            kind = 0;
        }
        match kind {
            // A conflicting insert: an existing customer in another city.
            0 => {
                let (_, order) = &self.orders[rng.gen_range(0..self.orders.len())];
                let city = loop {
                    let c = &self.cities[rng.gen_range(0..self.cities.len())];
                    if *c != order[2] {
                        break c.clone();
                    }
                };
                self.next_oid += 1;
                let row = Tuple::new([
                    Value::Int(self.next_oid),
                    order[1].clone(),
                    city,
                    order[3].clone(),
                    Value::Int(rng.gen_range(0..10_000)),
                ]);
                Op::Insert {
                    relation: "Orders",
                    row,
                }
            }
            1 => Op::Update {
                tid: self.orders[rng.gen_range(0..self.orders.len())].0,
                position: 4,
                value: Value::Int(rng.gen_range(0..10_000)),
            },
            _ => Op::Delete {
                tid: self
                    .pending
                    .swap_remove(rng.gen_range(0..self.pending.len())),
            },
        }
    }

    fn check(&mut self, op: &Op, reply: &str) -> Result<(), String> {
        if matches!(op, Op::Insert { .. }) {
            self.pending
                .push(result_tid(reply).ok_or("insert reply has no tid")?);
        }
        Ok(())
    }
}

/// Replay `log` on an in-process session over the same text and return the
/// indices whose reply differs from the one the session predicts.
fn transcript_mismatches(db_text: &str, log: &[OpRecord]) -> Result<Vec<usize>, String> {
    let mut session = CqaSession::from_text(db_text, SIGMA)?;
    let budget = Budget::unlimited();
    let mut wrong = Vec::new();
    for (i, record) in log.iter().enumerate() {
        let applied = match &record.op {
            Op::Insert { relation, row } => session
                .insert(relation, row.clone(), &budget)
                .map(|(tid, d)| (Json::obj([("tid", Json::Int(tid.0 as i64))]), d)),
            Op::Delete { tid } => session.delete(Tid(*tid), &budget).map(|(rel, row, d)| {
                (
                    Json::obj([
                        ("relation", Json::str(rel)),
                        ("row", Json::str(row.to_string())),
                    ]),
                    d,
                )
            }),
            Op::Update {
                tid,
                position,
                value,
            } => session
                .update(Tid(*tid), *position, value.clone(), &budget)
                .map(|d| (Json::obj([("tid", Json::Int(*tid as i64))]), d)),
            Op::Query { .. } => return Err("fd_ingest sends no queries".into()),
        };
        let expected = match applied {
            Ok((result, decision)) => Json::obj([
                ("epoch", Json::Int(session.epoch() as i64)),
                (
                    "consistent",
                    Json::Bool(session.is_consistent().map_err(|e| e.to_string())?),
                ),
                ("maintenance", Json::Str(decision.describe())),
                ("results", Json::Array(vec![result])),
            ])
            .to_string(),
            Err(e) => format!("rejected: {e}"),
        };
        if expected != record.reply {
            if wrong.is_empty() {
                eprintln!(
                    "transcript differs at op {i}: expected {expected}, got {}",
                    record.reply
                );
            }
            wrong.push(i);
        }
    }
    Ok(wrong)
}

fn model(db_text: &str, seed: u64) -> Result<IngestModel, String> {
    let db = cqa_relation::load(db_text).map_err(|e| e.to_string())?;
    let orders: Vec<(u64, Tuple)> = db
        .relation("Orders")
        .ok_or("no relation Orders")?
        .iter()
        .map(|(tid, t)| (tid.0, t.clone()))
        .collect();
    let cities: Vec<Value> = db
        .relation("Cities")
        .ok_or("no relation Cities")?
        .tuples()
        .map(|t| t[0].clone())
        .collect();
    Ok(IngestModel {
        orders,
        cities,
        pending: Vec::new(),
        next_oid: 1_000_000_000 + (seed % 1000) as i64 * 1_000_000,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (db, reference_sigma) = crate::instances::f18(ORDERS, args.seed);
    // The Σ text must describe the same constraints as the F18 generator's.
    let parsed = cqa_constraints::parse_constraints(SIGMA).map_err(|e| e.to_string())?;
    let edges = |s: &cqa_constraints::ConstraintSet| {
        s.conflict_hypergraph(&db)
            .map(|g| g.edge_count())
            .map_err(|e| e.to_string())
    };
    if edges(&parsed)? != edges(&reference_sigma)? {
        return Err("the Σ text disagrees with the F18 constraints".into());
    }
    let db_text = cqa_relation::save(&db);
    let body = session_body(&db_text, SIGMA);
    let warm = |conn: &mut Conn, _session: u64| {
        let (status, _) = conn.send("GET", "/health", "").map_err(|e| e.to_string())?;
        (status == 200)
            .then_some(())
            .ok_or("health check failed".to_string())
    };
    let (served, mut conn, setup_s) = boot(crate::SETUPS, &body, warm)?;
    let mut model = model(&db_text, args.seed)?;
    let mut rng = SmallRng::seed_from_u64(args.seed.wrapping_mul(31));
    let mut log = Vec::new();
    let mut traced = None;
    if args.trace {
        let origin = Instant::now();
        let mut rec = crate::trace::Recorder::new(origin);
        let (mirror, info) = Mirror::new(&mut rec, &db_text, SIGMA, &body, None)?;
        let mirror = Mutex::new(mirror);
        let ids = AtomicU64::new(1);
        let mut tracing = Tracing {
            mirror: &mirror,
            rec: crate::trace::Recorder::new(origin),
            request_ids: &ids,
        };
        let until = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
        closed_loop(
            &mut conn,
            served.session,
            &mut model,
            &mut rng,
            until,
            Some(&mut tracing),
            &mut log,
        )?;
        rec.absorb(tracing.rec);
        let mirror = mirror.into_inner().map_err(|_| "mirror lock poisoned")?;
        traced = Some((rec, info, mirror));
    }
    let traced_ops = log.len();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let start = Instant::now();
    closed_loop(
        &mut conn,
        served.session,
        &mut model,
        &mut rng,
        start + Duration::from_secs_f64(seconds),
        None,
        &mut log,
    )?;
    let elapsed = start.elapsed().as_secs_f64();
    drop(conn);
    let refused = served.stop()?;
    let recomputes = log
        .iter()
        .filter(|r| r.reply.contains("recomputed violations"))
        .count();
    println!(
        "transcript: {} mutations, {recomputes} maintained by recompute",
        log.len()
    );
    for i in transcript_mismatches(&db_text, &log)? {
        log[i].ms = f64::INFINITY;
    }
    let untraced = log.split_off(traced_ops);
    let mut run = ServerRun::new(setup_s);
    run.refused = refused;
    if let Some((rec, info, mirror)) = traced {
        run.traced(rec, info, mirror, log);
    }
    run.untraced(untraced, elapsed);
    Ok(run.finish(args))
}
