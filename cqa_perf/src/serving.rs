//! The closed-loop client shared by the two `repaird` workloads: each
//! client sends its next request only after the previous reply arrived.

use crate::client::{request_bytes, Conn};
use crate::mirror::Mirror;
use crate::ops::Op;
use crate::stats::Samples;
use crate::trace::Recorder;
use rand::rngs::SmallRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A client's view of the session: it chooses the next operation and
/// predicts or checks each reply.
pub trait Model {
    fn next(&mut self, rng: &mut SmallRng) -> Op;

    /// Check a 200 reply to `op` and update the model from it.
    fn check(&mut self, op: &Op, reply: &str) -> Result<(), String>;
}

/// One completed or failed operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub op: Op,
    pub reply: String,
    /// Round-trip milliseconds; `+∞` when the operation failed.
    pub ms: f64,
}

impl OpRecord {
    pub fn failed(&self) -> bool {
        !self.ms.is_finite()
    }
}

/// The traced run's per-client tracing state.
pub struct Tracing<'a> {
    pub mirror: &'a Mutex<Mirror>,
    pub rec: Recorder,
    pub request_ids: &'a AtomicU64,
}

/// Run the closed loop on `conn` until `until`, appending to `log`. Check
/// failures are counted, reported once on standard error, and never stop
/// the loop; a broken connection or mirror does.
pub fn closed_loop(
    conn: &mut Conn,
    session: u64,
    model: &mut dyn Model,
    rng: &mut SmallRng,
    until: Instant,
    mut tracing: Option<&mut Tracing<'_>>,
    log: &mut Vec<OpRecord>,
) -> Result<(), String> {
    let mut reported = false;
    while Instant::now() < until {
        let op = model.next(rng);
        let bytes = request_bytes("POST", &op.path(session), &op.body(|t| t));
        let span = tracing.as_mut().map(|t| {
            let id = t.request_ids.fetch_add(1, Ordering::Relaxed);
            (id, t.rec.open("request", None, id))
        });
        let start = Instant::now();
        let (status, reply) = conn.send_bytes(&bytes).map_err(|e| e.to_string())?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some((_, span))) = (tracing.as_mut(), span) {
            t.rec.close(span);
        }
        let verdict = if status == 200 {
            model.check(&op, &reply)
        } else {
            Err(format!("status {status}: {reply}"))
        };
        if let Err(why) = &verdict {
            if !std::mem::replace(&mut reported, true) {
                eprintln!("operation failed: {op:?}: {why}");
            }
        }
        if let (Some(t), Some((id, span)), Ok(())) = (tracing.as_mut(), span, &verdict) {
            t.mirror
                .lock()
                .map_err(|_| "mirror lock poisoned")?
                .replay(&mut t.rec, span, id, &op, &reply)?;
        }
        let ms = if verdict.is_ok() { ms } else { f64::INFINITY };
        log.push(OpRecord { op, reply, ms });
    }
    Ok(())
}

/// Latency samples of every operation in `log`.
pub fn latencies(log: &[OpRecord]) -> Samples {
    let mut all = Samples::default();
    for r in log {
        all.push(r.ms);
    }
    all
}

/// Latency samples of the queries and of the mutations in `log`.
pub fn split(log: &[OpRecord]) -> (Samples, Samples) {
    let (mut queries, mut mutations) = (Samples::default(), Samples::default());
    for r in log {
        let target = if r.op.is_query() {
            &mut queries
        } else {
            &mut mutations
        };
        target.push(r.ms);
    }
    (queries, mutations)
}
