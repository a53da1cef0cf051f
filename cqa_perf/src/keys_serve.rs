//! `keys_serve`: many small requests against one warm `repaird` session
//! under a primary key. Two closed-loop clients send 90% point `certain`
//! queries and 10% single-tuple mutations. Each client owns the keys of one
//! parity, so its own key-group map predicts every answer it receives.

use crate::client::{boot, session_body, Conn};
use crate::mirror::Mirror;
use crate::ops::{first_result, result_tid, Op};
use crate::serving::{closed_loop, Model, OpRecord, Tracing};
use crate::stats::Report;
use crate::{Args, ServerRun};
use cqa_relation::{tuple, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const CLEAN_KEYS: usize = 20_000;
pub const CONFLICTING_KEYS: usize = 200;
pub const CLIENTS: usize = 2;
pub const QUERY_PERCENT: u32 = 90;
const SIGMA: &str = "key T(K)\n";

/// What the client is waiting to see confirmed.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Query { key: i64 },
    Insert { key: i64, value: i64 },
    Delete { key: i64, index: usize },
    Update { key: i64, index: usize, value: i64 },
}

/// One client's key groups: key → live `(tid, value)` tuples.
struct KeyModel {
    groups: BTreeMap<i64, Vec<(u64, i64)>>,
    keys: Vec<i64>,
    pending: Option<Pending>,
}

impl KeyModel {
    fn fresh_value(&self, rng: &mut SmallRng, key: i64) -> i64 {
        loop {
            let v = rng.gen_range(0..1_000_000i64);
            if self.groups[&key].iter().all(|&(_, w)| w != v) {
                return v;
            }
        }
    }

    /// A random key with at least one live tuple, and a random index in it.
    fn live_tuple(&self, rng: &mut SmallRng) -> Option<(i64, usize)> {
        (0..16).find_map(|_| {
            let key = self.keys[rng.gen_range(0..self.keys.len())];
            let group = &self.groups[&key];
            (!group.is_empty()).then(|| (key, rng.gen_range(0..group.len())))
        })
    }

    fn query(&mut self, key: i64) -> Op {
        self.pending = Some(Pending::Query { key });
        Op::Query {
            text: format!("Q(y) :- T({key}, y)"),
        }
    }
}

impl Model for KeyModel {
    fn next(&mut self, rng: &mut SmallRng) -> Op {
        let key = self.keys[rng.gen_range(0..self.keys.len())];
        if rng.gen_range(0..100) < QUERY_PERCENT {
            return self.query(key);
        }
        match rng.gen_range(0..3) {
            0 => {
                let value = self.fresh_value(rng, key);
                self.pending = Some(Pending::Insert { key, value });
                Op::Insert {
                    relation: "T",
                    row: tuple![key, value],
                }
            }
            kind => {
                let Some((key, index)) = self.live_tuple(rng) else {
                    return self.query(key);
                };
                let tid = self.groups[&key][index].0;
                if kind == 1 {
                    self.pending = Some(Pending::Delete { key, index });
                    Op::Delete { tid }
                } else {
                    let value = self.fresh_value(rng, key);
                    self.pending = Some(Pending::Update { key, index, value });
                    Op::Update {
                        tid,
                        position: 1,
                        value: Value::Int(value),
                    }
                }
            }
        }
    }

    fn check(&mut self, _op: &Op, reply: &str) -> Result<(), String> {
        let pending = self.pending.take().ok_or("no operation pending")?;
        match pending {
            Pending::Query { key } => {
                // Under a key, a value is certain exactly when its key group
                // has no other tuple.
                let expected = match self.groups[&key].as_slice() {
                    [(_, v)] => format!("[\"({v})\"]"),
                    _ => "[]".to_string(),
                };
                let want = format!("{{\"answers\":{expected},\"strategy\":\"fo-rewriting\"}}");
                if reply != want {
                    return Err(format!("key {key}: expected {want}, got {reply}"));
                }
            }
            Pending::Insert { key, value } => {
                let tid = result_tid(reply).ok_or("insert reply has no tid")?;
                self.groups
                    .get_mut(&key)
                    .expect("own key")
                    .push((tid, value));
            }
            Pending::Delete { key, index } => {
                let group = self.groups.get_mut(&key).expect("own key");
                let (_, value) = group[index];
                let row = first_result(reply)
                    .and_then(|r| r.get("row").and_then(|j| j.as_str().map(str::to_string)));
                if row.as_deref() != Some(&format!("({key}, {value})")) {
                    return Err(format!("delete of ({key}, {value}) answered {reply}"));
                }
                group.swap_remove(index);
            }
            Pending::Update { key, index, value } => {
                let group = self.groups.get_mut(&key).expect("own key");
                if result_tid(reply) != Some(group[index].0) {
                    return Err(format!("update of key {key} answered {reply}"));
                }
                group[index].1 = value;
            }
        }
        Ok(())
    }
}

/// Split the loaded instance's key groups between the clients by key parity.
fn models(db_text: &str) -> Result<Vec<KeyModel>, String> {
    let db = cqa_relation::load(db_text).map_err(|e| e.to_string())?;
    let mut models: Vec<KeyModel> = (0..CLIENTS)
        .map(|_| KeyModel {
            groups: BTreeMap::new(),
            keys: Vec::new(),
            pending: None,
        })
        .collect();
    let relation = db.relation("T").ok_or("no relation T")?;
    for (tid, t) in relation.iter() {
        let (Value::Int(key), Value::Int(value)) = (&t[0], &t[1]) else {
            return Err(format!("unexpected tuple {t}"));
        };
        let model = &mut models[key.rem_euclid(CLIENTS as i64) as usize];
        model.groups.entry(*key).or_default().push((tid.0, *value));
    }
    for m in &mut models {
        m.keys = m.groups.keys().copied().collect();
    }
    Ok(models)
}

fn phase(
    conns: &mut [Conn],
    session: u64,
    models: &mut [KeyModel],
    rngs: &mut [SmallRng],
    logs: &mut [Vec<OpRecord>],
    seconds: f64,
    tracing: Option<&mut [Tracing<'_>]>,
) -> Result<f64, String> {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut traces = tracing.map(|t| t.iter_mut());
        let clients = conns.iter_mut().zip(models.iter_mut()).zip(rngs.iter_mut());
        for (((conn, model), rng), log) in clients.zip(logs.iter_mut()) {
            let trace = traces.as_mut().and_then(Iterator::next);
            handles.push(
                scope.spawn(move || closed_loop(conn, session, model, rng, until, trace, log)),
            );
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    results.into_iter().collect::<Result<(), String>>()?;
    Ok(start.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (db, _) =
        cqa_bench::workload::key_conflict_instance(CLEAN_KEYS, CONFLICTING_KEYS, 2, args.seed);
    let db_text = cqa_relation::save(&db);
    let body = session_body(&db_text, SIGMA);
    let warm = |conn: &mut Conn, session: u64| {
        let (status, reply) = conn
            .send(
                "POST",
                &format!("/sessions/{session}/query"),
                "{\"query\":\"Q(y) :- T(0, y)\"}",
            )
            .map_err(|e| e.to_string())?;
        (status == 200)
            .then_some(())
            .ok_or(format!("warm-up query answered {status}: {reply}"))
    };
    let (served, first, setup_s) = boot(crate::SETUPS, &body, warm)?;
    // The first client keeps the connection that opened the session.
    let mut conns = vec![first];
    while conns.len() < CLIENTS {
        conns.push(Conn::connect(served.addr()).map_err(|e| e.to_string())?);
    }
    let mut models = models(&db_text)?;
    let mut rngs: Vec<SmallRng> = (0..CLIENTS as u64)
        .map(|c| SmallRng::seed_from_u64(args.seed.wrapping_mul(31).wrapping_add(c)))
        .collect();
    let mut logs: Vec<Vec<OpRecord>> = vec![Vec::new(); CLIENTS];
    let mut run = ServerRun::new(setup_s);
    if args.trace {
        let origin = Instant::now();
        let mut rec = crate::trace::Recorder::new(origin);
        let keys = BTreeMap::from([("T".to_string(), vec![0usize])]);
        let (mirror, info) = Mirror::new(&mut rec, &db_text, SIGMA, &body, Some(keys))?;
        let mirror = Mutex::new(mirror);
        let ids = AtomicU64::new(1);
        let mut tracings: Vec<Tracing<'_>> = (0..CLIENTS)
            .map(|_| Tracing {
                mirror: &mirror,
                rec: crate::trace::Recorder::new(origin),
                request_ids: &ids,
            })
            .collect();
        let cache_before = cqa_query::plan_cache_stats();
        phase(
            &mut conns,
            served.session,
            &mut models,
            &mut rngs,
            &mut logs,
            args.seconds / 2.0,
            Some(&mut tracings),
        )?;
        let cache_after = cqa_query::plan_cache_stats();
        for t in tracings {
            rec.absorb(t.rec);
        }
        let traced: Vec<OpRecord> = logs.iter_mut().flat_map(std::mem::take).collect();
        run.traced(
            rec,
            info,
            mirror.into_inner().map_err(|_| "mirror lock poisoned")?,
            traced,
        );
        run.cache = (
            cache_after.hits.saturating_sub(cache_before.hits),
            cache_after.misses.saturating_sub(cache_before.misses),
        );
    }
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let elapsed = phase(
        &mut conns,
        served.session,
        &mut models,
        &mut rngs,
        &mut logs,
        seconds,
        None,
    )?;
    drop(conns);
    run.refused = served.stop()?;
    run.untraced(logs.into_iter().flatten().collect(), elapsed);
    Ok(run.finish(args))
}
