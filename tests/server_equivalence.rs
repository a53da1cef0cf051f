//! Property tests for `repaird` (PR 9): the server path is byte-identical
//! to the library path.
//!
//! The contract: for ANY sequence of mutations and queries, the transcript
//! produced by real TCP round-trips through a running server — keep-alive
//! framing, per-connection threads, admission gate and all — is **byte
//! identical** to calling the request handler directly in-process, at 1
//! worker thread and at 4, *including* deterministic step-budget
//! truncation. Sessions are independent tenants, so concurrent client
//! threads must not perturb any individual session's transcript. Within one
//! shared session, concurrent readers and a writer must produce a history
//! that some sequential replay explains (linearizability).

use cqa_exec::{with_threads, AdmissionGate, CancelToken, ServiceGroup};
use cqa_server::{api, start, Request, ServerConfig, ServerState, SessionStore};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, RwLock};

const DB: &str = "@relation T(K, V)\n0, 1\n0, 2\n1, 1\n2, 5\n";
/// Two conflicting keys, so the warm hyper-graph has two components from
/// the start and C-repair queries fold over it.
const SHARED_DB: &str = "@relation T(K, V)\n0, 1\n0, 2\n1, 1\n1, 3\n2, 5\n";
const SIGMA: &str = "key T(K)\n";

/// One random request against a session. Tids are raw numbers: the
/// allocator is deterministic, so hitting a live tid (200 mutate) or a
/// dead one (400 with an `applied` count) is the same on every path —
/// error replies are part of the byte-identity contract too.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Delete(u64),
    Certain {
        steps: u64,
    },
    /// Certain rows `Q(x, y)` over C-repairs: changes whenever a conflict
    /// appears or goes, and folds over the session's warm hyper-graph once
    /// it has two components.
    Rows,
    Possible,
    Repairs {
        cardinality: bool,
        steps: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0i64..4), (0i64..9)).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..10).prop_map(Op::Delete),
        (1u64..300).prop_map(|steps| Op::Certain { steps }),
        Just(Op::Possible),
        ((0u8..2), (1u64..300)).prop_map(|(c, steps)| Op::Repairs {
            cardinality: c == 1,
            steps,
        }),
    ]
}

/// Wire form of an op: (path suffix, JSON body).
fn render(op: &Op, id: u64) -> (String, String) {
    match op {
        Op::Insert(k, v) => (
            format!("/sessions/{id}/mutate"),
            format!(r#"{{"ops": [{{"op": "insert", "relation": "T", "row": [{k}, {v}]}}]}}"#),
        ),
        Op::Delete(tid) => (
            format!("/sessions/{id}/mutate"),
            format!(r#"{{"ops": [{{"op": "delete", "tid": {tid}}}]}}"#),
        ),
        Op::Certain { steps } => (
            format!("/sessions/{id}/query"),
            format!(r#"{{"query": "Q(x) :- T(x, y)", "budget_steps": {steps}}}"#),
        ),
        Op::Rows => (
            format!("/sessions/{id}/query"),
            r#"{"query": "Q(x, y) :- T(x, y)", "class": "cardinality"}"#.to_string(),
        ),
        Op::Possible => (
            format!("/sessions/{id}/query"),
            r#"{"query": "Q(x) :- T(x, y)", "kind": "possible"}"#.to_string(),
        ),
        Op::Repairs { cardinality, steps } => (
            format!("/sessions/{id}/repairs"),
            format!(
                r#"{{"class": "{}", "budget_steps": {steps}}}"#,
                if *cardinality {
                    "cardinality"
                } else {
                    "subset"
                }
            ),
        ),
    }
}

fn create_body(db: &str) -> String {
    format!(
        "{{\"db\": {}, \"constraints\": {}}}",
        cqa_server::Json::str(db),
        cqa_server::Json::str(SIGMA)
    )
}

/// The library path: `api::handle` called directly, no sockets.
fn run_direct(db: &str, sessions: &[Vec<Op>]) -> Vec<Vec<String>> {
    let state = ServerState {
        config: ServerConfig::default(),
        sessions: SessionStore::new(64),
        gate: AdmissionGate::new(64),
        stop: CancelToken::new(),
    };
    let slot = RwLock::new(None);
    let call = |method: &str, path: &str, body: &str| -> String {
        let req = Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.as_bytes().to_vec(),
            close: false,
        };
        let reply = api::handle(&state, &req, &slot);
        format!("{} {}", reply.status, reply.body)
    };
    let mut transcripts = Vec::new();
    for (i, ops) in sessions.iter().enumerate() {
        let mut t = vec![call("POST", "/sessions", &create_body(db))];
        let id = i as u64 + 1;
        for op in ops {
            let (path, body) = render(op, id);
            t.push(call("POST", &path, &body));
        }
        transcripts.push(t);
    }
    transcripts
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            content_length = v;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8"))
}

/// The server path: a real listener, sessions created sequentially (so
/// ids are deterministic), then one concurrent keep-alive client thread
/// per session.
fn run_server(sessions: &[Vec<Op>]) -> Vec<Vec<String>> {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr();
    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for _ in sessions {
        let mut stream = TcpStream::connect(addr).expect("connect");
        send(&mut stream, "POST", "/sessions", &create_body(DB));
        let (status, body) = read_reply(&mut BufReader::new(stream));
        transcripts.push(vec![format!("{status} {body}")]);
    }
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<String>)>();
    let mut clients = ServiceGroup::new();
    for (i, ops) in sessions.iter().enumerate() {
        let ops = ops.clone();
        let tx = tx.clone();
        let spawned = clients.spawn("equivalence-client", move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut t = Vec::new();
            for op in &ops {
                let (path, body) = render(op, i as u64 + 1);
                send(&mut stream, "POST", &path, &body);
                let (status, body) = read_reply(&mut reader);
                t.push(format!("{status} {body}"));
            }
            tx.send((i, t)).expect("collector alive");
        });
        assert!(spawned, "could not spawn a client thread");
    }
    drop(tx);
    assert!(clients.join_all().is_empty(), "a client thread panicked");
    for (i, t) in rx {
        transcripts[i].extend(t);
    }
    handle.shutdown();
    handle.join();
    transcripts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Direct dispatch at 1 thread ≡ TCP server at 1 thread ≡ TCP server
    /// with concurrent clients at 4 threads, transcript-for-transcript.
    #[test]
    fn server_transcripts_match_library_path(
        sessions in vec(vec(arb_op(), 1..8), 1..4),
    ) {
        let direct = with_threads(1, || run_direct(DB, &sessions));
        let serial = with_threads(1, || run_server(&sessions));
        prop_assert_eq!(&direct, &serial, "TCP framing changed a reply");
        let concurrent = with_threads(4, || run_server(&sessions));
        prop_assert_eq!(&direct, &concurrent, "thread count changed a reply");
    }
}

/// Deterministic truncation pin: a step budget that latches mid-repair
/// enumeration truncates at the same point over the wire as in-process.
#[test]
fn step_truncation_is_byte_identical_over_the_wire() {
    let ops = vec![vec![
        Op::Repairs {
            cardinality: false,
            steps: 2,
        },
        Op::Certain { steps: 1 },
        Op::Repairs {
            cardinality: true,
            steps: 3,
        },
    ]];
    let direct = with_threads(1, || run_direct(DB, &ops));
    let over_wire = with_threads(4, || run_server(&ops));
    assert_eq!(direct, over_wire);
    let flat = direct.concat().join("\n");
    assert!(flat.contains("truncated"), "expected a truncation: {flat}");
}

/// A seeded writer script: inserts over a few keys (conflicts appear) and
/// deletes of low tids (conflicts go, or a 400 for a dead tid).
fn writer_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.3) {
                Op::Delete(rng.gen_range(1..12))
            } else {
                Op::Insert(rng.gen_range(0..4), rng.gen_range(0..6))
            }
        })
        .collect()
}

/// One shared session over TCP: client 0 applies `writes` while clients
/// 1–3 repeat [`Op::Rows`] until the writer is done. Returns the writer's
/// replies and each reader's replies, in order; each reader's last read
/// starts after the writer's last reply arrived.
fn run_shared(writes: &[Op]) -> (Vec<String>, Vec<Vec<String>>) {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    send(&mut stream, "POST", "/sessions", &create_body(SHARED_DB));
    assert_eq!(read_reply(&mut BufReader::new(stream)).0, 200);
    // `done` is stored with Release after the writer's last reply and
    // loaded with Acquire by the readers: a reader that sees it set issues
    // its next read after every write was answered.
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(4));
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<String>)>();
    let mut clients = ServiceGroup::new();
    for client in 0..4 {
        let writes = writes.to_vec();
        let (tx, done, start) = (tx.clone(), Arc::clone(&done), Arc::clone(&start));
        let spawned = clients.spawn("linearizability-client", move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            // Every client is connected before the first request is sent.
            start.wait();
            let mut round_trip = |op: &Op| {
                let (path, body) = render(op, 1);
                send(&mut stream, "POST", &path, &body);
                let (status, body) = read_reply(&mut reader);
                format!("{status} {body}")
            };
            let mut replies = Vec::new();
            if client == 0 {
                replies.extend(writes.iter().map(&mut round_trip));
                done.store(true, Ordering::Release);
            } else {
                // At least a few reads; the cap ends the loop if the writer
                // died (the history check then fails on its replies).
                while replies.len() < 5 || (!done.load(Ordering::Acquire) && replies.len() < 10_000)
                {
                    replies.push(round_trip(&Op::Rows));
                }
                // This read starts after the last write was answered.
                replies.push(round_trip(&Op::Rows));
            }
            tx.send((client, replies)).expect("collector alive");
        });
        assert!(spawned, "could not spawn a client thread");
    }
    drop(tx);
    assert!(clients.join_all().is_empty(), "a client thread panicked");
    let mut by_client = vec![Vec::new(); 4];
    for (client, replies) in rx {
        by_client[client] = replies;
    }
    handle.shutdown();
    handle.join();
    let writer = by_client.remove(0);
    (writer, by_client)
}

/// Linearizability of one shared session: the writer's replies equal the
/// sequential library replay, and every read equals the library's answer
/// after some prefix of the writes, with each reader's prefixes
/// non-decreasing and a read issued after the last write seeing all of
/// them (reads share the session's read lock; a mutation holds
/// the write lock until the warm state is maintained).
#[test]
fn shared_session_histories_are_linearizable() {
    for seed in 1..=3 {
        let writes = writer_ops(seed, 16);
        // Library replay: a read before the first write and after each one.
        let mut history = vec![Op::Rows];
        for w in &writes {
            history.extend([w.clone(), Op::Rows]);
        }
        let replay = with_threads(1, || run_direct(SHARED_DB, &[history])).remove(0);
        let mutates: Vec<&String> = replay[2..].iter().step_by(2).collect();
        let prefixes: Vec<&String> = replay[1..].iter().step_by(2).collect();
        for threads in [1, 4] {
            let (writer, readers) = with_threads(threads, || run_shared(&writes));
            let writer: Vec<&String> = writer.iter().collect();
            assert_eq!(
                writer, mutates,
                "seed {seed}, {threads} threads: a write drifted"
            );
            for (r, replies) in readers.iter().enumerate() {
                let mut at = 0;
                for reply in replies {
                    at = (at..prefixes.len())
                        .find(|&k| prefixes[k] == reply)
                        .unwrap_or_else(|| {
                            panic!(
                                "seed {seed}, {threads} threads, reader {r}: {reply} \
                                 matches no prefix at or after {at}"
                            )
                        });
                }
                assert_eq!(
                    replies.last(),
                    prefixes.last().copied(),
                    "seed {seed}, reader {r}: a late read missed a write"
                );
            }
        }
    }
}
