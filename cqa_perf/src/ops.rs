//! The operations a `repaird` client sends, and their wire bodies.

use cqa_relation::{Tuple, Value};
use cqa_server::Json;

/// One request against the benchmark's session.
#[derive(Debug, Clone)]
pub enum Op {
    /// A `certain` query under subset repairs.
    Query {
        text: String,
    },
    Insert {
        relation: &'static str,
        row: Tuple,
    },
    Delete {
        tid: u64,
    },
    Update {
        tid: u64,
        position: usize,
        value: Value,
    },
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Str(s) => Json::str(s.as_ref()),
        Value::Float(f) => Json::Float(*f),
        Value::Bool(b) => Json::Bool(*b),
        Value::Null(_) => Json::Null,
    }
}

impl Op {
    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query { .. })
    }

    pub fn path(&self, session: u64) -> String {
        let verb = if self.is_query() { "query" } else { "mutate" };
        format!("/sessions/{session}/{verb}")
    }

    /// The request body, with every tid passed through `tid`.
    pub fn body(&self, tid: impl Fn(u64) -> u64) -> String {
        let op = match self {
            Op::Query { text } => {
                return Json::obj([("query", Json::str(text.as_str()))]).to_string();
            }
            Op::Insert { relation, row } => Json::obj([
                ("op", Json::str("insert")),
                ("relation", Json::str(*relation)),
                ("row", Json::Array(row.iter().map(value_json).collect())),
            ]),
            Op::Delete { tid: t } => Json::obj([
                ("op", Json::str("delete")),
                ("tid", Json::Int(tid(*t) as i64)),
            ]),
            Op::Update {
                tid: t,
                position,
                value,
            } => Json::obj([
                ("op", Json::str("update")),
                ("tid", Json::Int(tid(*t) as i64)),
                ("position", Json::Int(*position as i64)),
                ("value", value_json(value)),
            ]),
        };
        Json::obj([("ops", Json::Array(vec![op]))]).to_string()
    }
}

/// The first `results` entry of a mutate reply.
pub fn first_result(reply: &str) -> Option<Json> {
    let parsed = cqa_server::json::parse(reply).ok()?;
    parsed.get("results")?.as_array()?.first().cloned()
}

/// The tid a mutate reply reports for its first operation.
pub fn result_tid(reply: &str) -> Option<u64> {
    first_result(reply)?.get("tid")?.as_u64()
}
