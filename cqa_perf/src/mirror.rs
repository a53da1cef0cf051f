//! The traced run's in-process mirror of a `repaird` session.
//!
//! After each round trip the traced run replays the same request on the
//! mirror through the public functions of each layer it crosses: the HTTP
//! and JSON codec (`http::read_request`, `json::parse`, `Json` display,
//! `http::write_response`), the handler (`api::handle` on a mirror
//! `ServerState`), and below it the core and query layers on a second copy
//! of the instance (`IncrementalState::refresh`, `answer_consistently_incremental`,
//! `rewrite_key_query`, `eval_fo`). Both copies receive the same mutations
//! in the same order, so they agree on tids; server tids are translated for
//! the case where two clients' inserts reached the server in another order.

use crate::client::request_bytes;
use crate::ops::{result_tid, Op};
use crate::trace::Recorder;
use cqa_constraints::ConstraintSet;
use cqa_core::rewrite::keys::KeyPositions;
use cqa_core::{
    answer_consistently_incremental, plan_diagnostics, rewrite_key_query, IncrementalState,
    MaintenanceDecision,
};
use cqa_exec::{AdmissionGate, Budget, CancelToken};
use cqa_query::{eval_fo, NullSemantics, UnionQuery};
use cqa_relation::{Database, Tid};
use cqa_server::{api, ServerConfig, ServerState, SessionStore};
use std::collections::HashMap;
use std::io::BufReader;
use std::sync::RwLock;

/// Deterministic shape counts of a conflict hyper-graph.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GraphCounts {
    pub edges: usize,
    pub components: usize,
    pub largest: usize,
}

/// Build the conflict hyper-graph and its components under two spans.
pub fn graph_replay(
    rec: &mut Recorder,
    parent: usize,
    request: u64,
    sigma: &ConstraintSet,
    db: &Database,
) -> Result<GraphCounts, String> {
    let (graph, _) = rec.time("constraints.hypergraph", Some(parent), request, || {
        sigma.conflict_hypergraph(db)
    });
    let graph = graph.map_err(|e| e.to_string())?;
    let (components, _) = rec.time("constraints.components", Some(parent), request, || {
        graph.components()
    });
    Ok(GraphCounts {
        edges: graph.edge_count(),
        components: components.components.len(),
        largest: components
            .components
            .iter()
            .map(|c| c.tids().len())
            .max()
            .unwrap_or(0),
    })
}

/// What the mirror learned while loading the instance.
#[derive(Debug, Clone, Copy)]
pub struct LoadInfo {
    pub graph: GraphCounts,
    pub heap_mib: f64,
}

pub struct Mirror {
    server: ServerState,
    session: u64,
    sigma: ConstraintSet,
    db: Database,
    state: IncrementalState,
    keys: Option<KeyPositions>,
    tids: HashMap<u64, u64>,
    cancel_slot: RwLock<Option<CancelToken>>,
    pub maintained: u64,
    pub recomputed: u64,
    pub budget_steps: u64,
}

impl Mirror {
    /// Load the instance under set-up spans and open the mirror session.
    pub fn new(
        rec: &mut Recorder,
        db_text: &str,
        sigma_text: &str,
        session_body: &str,
        keys: Option<KeyPositions>,
    ) -> Result<(Mirror, LoadInfo), String> {
        let setup = rec.open("setup", None, 0);
        let (db, _) = rec.time("relation.load", Some(setup), 0, || {
            cqa_relation::load(db_text)
        });
        let db = db.map_err(|e| e.to_string())?;
        let sigma = cqa_constraints::parse_constraints(sigma_text).map_err(|e| e.to_string())?;
        let (consistent, _) = rec.time("constraints.check", Some(setup), 0, || {
            sigma.is_satisfied(&db)
        });
        consistent.map_err(|e| e.to_string())?;
        let graph = graph_replay(rec, setup, 0, &sigma, &db)?;
        let state = IncrementalState::new(&db, &sigma).map_err(|e| e.to_string())?;
        rec.close(setup);
        let server = ServerState {
            config: ServerConfig::default(),
            sessions: SessionStore::new(1),
            gate: AdmissionGate::new(1),
            stop: CancelToken::new(),
        };
        let bytes = request_bytes("POST", "/sessions", session_body);
        let request = cqa_server::read_request(&mut BufReader::new(&bytes[..]), usize::MAX)
            .map_err(|e| format!("{e:?}"))?
            .ok_or("empty session request")?;
        let cancel_slot = RwLock::new(None);
        let reply = api::handle(&server, &request, &cancel_slot);
        let session = reply
            .body
            .get("session")
            .and_then(cqa_server::Json::as_u64)
            .ok_or("mirror session was not created")?;
        let info = LoadInfo {
            graph,
            heap_mib: db.heap_bytes() as f64 / (1024.0 * 1024.0),
        };
        let mirror = Mirror {
            server,
            session,
            sigma,
            db,
            state,
            keys,
            tids: HashMap::new(),
            cancel_slot,
            maintained: 0,
            recomputed: 0,
            budget_steps: 0,
        };
        Ok((mirror, info))
    }

    fn tid(&self, server_tid: u64) -> u64 {
        self.tids.get(&server_tid).copied().unwrap_or(server_tid)
    }

    /// Replay one request that the server answered with `reply`; its spans
    /// hang under `request_span`.
    pub fn replay(
        &mut self,
        rec: &mut Recorder,
        request_span: usize,
        request: u64,
        op: &Op,
        reply: &str,
    ) -> Result<(), String> {
        let bytes = request_bytes("POST", &op.path(self.session), &op.body(|t| self.tid(t)));
        let (parsed, _) = rec.time("server.codec", Some(request_span), request, || {
            cqa_server::read_request(&mut BufReader::new(&bytes[..]), usize::MAX)
        });
        let parsed = parsed
            .map_err(|e| format!("{e:?}"))?
            .ok_or("empty replayed request")?;
        let (answer, handle) = rec.time("server.handle", Some(request_span), request, || {
            api::handle(&self.server, &parsed, &self.cancel_slot)
        });
        // The handler parses the body itself; replay that parse under it.
        let text = std::str::from_utf8(&parsed.body).map_err(|e| e.to_string())?;
        rec.time("server.codec", Some(handle), request, || {
            cqa_server::json::parse(text)
        })
        .0?;
        if answer.status != 200 {
            return Err(format!(
                "mirror answered {}: {}",
                answer.status, answer.body
            ));
        }
        rec.time("server.codec", Some(request_span), request, || {
            let mut out = Vec::new();
            cqa_server::write_response(
                &mut out,
                answer.status,
                &[],
                &answer.body.to_string(),
                false,
            )
        })
        .0
        .map_err(|e| e.to_string())?;
        match op {
            Op::Query { text } => self.replay_query(rec, handle, request, text),
            _ => self.replay_mutation(rec, handle, request, op, reply, &answer.body.to_string()),
        }
    }

    fn replay_query(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        request: u64,
        text: &str,
    ) -> Result<(), String> {
        let cq = cqa_query::parse_query(text).map_err(|e| e.to_string())?;
        let query = UnionQuery::single(cq.clone());
        let budget = Budget::unlimited();
        let (planned, answer) = rec.time("core.answer", Some(parent), request, || {
            answer_consistently_incremental(&self.db, &self.sigma, &query, &mut self.state, &budget)
        });
        planned.map_err(|e| e.to_string())?;
        self.budget_steps += budget.steps_used();
        rec.time("core.plan", Some(answer), request, || {
            plan_diagnostics(&self.db, &self.sigma, &query)
        });
        if let Some(keys) = &self.keys {
            let (fo, _) = rec.time("core.rewrite", Some(answer), request, || {
                rewrite_key_query(&cq, keys)
            });
            let fo = fo.map_err(|e| e.to_string())?;
            rec.time("query.eval_fo", Some(answer), request, || {
                eval_fo(&self.db, &fo, NullSemantics::Structural)
            });
        }
        Ok(())
    }

    fn replay_mutation(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        request: u64,
        op: &Op,
        server_reply: &str,
        mirror_reply: &str,
    ) -> Result<(), String> {
        match op {
            Op::Insert { relation, row } => {
                let tid = self
                    .db
                    .insert(relation, row.clone())
                    .map_err(|e| e.to_string())?;
                let server_tid = result_tid(server_reply).ok_or("insert reply has no tid")?;
                if result_tid(mirror_reply) != Some(tid.0) {
                    return Err("the two mirror copies disagree on an inserted tid".into());
                }
                self.tids.insert(server_tid, tid.0);
            }
            Op::Delete { tid } => {
                self.db
                    .delete(Tid(self.tid(*tid)))
                    .map_err(|e| e.to_string())?;
            }
            Op::Update {
                tid,
                position,
                value,
            } => {
                self.db
                    .update_value(Tid(self.tid(*tid)), *position, value.clone())
                    .map_err(|e| e.to_string())?;
            }
            Op::Query { .. } => unreachable!("queries are replayed by replay_query"),
        }
        let (decision, _) = rec.time("core.maintain", Some(parent), request, || {
            self.state.refresh(&self.db, &self.sigma).cloned()
        });
        self.maintained += 1;
        if matches!(
            decision.map_err(|e| e.to_string())?,
            MaintenanceDecision::Recompute { .. }
        ) {
            self.recomputed += 1;
        }
        Ok(())
    }
}
