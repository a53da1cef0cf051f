//! `cqa-perf`: the end-to-end and per-layer benchmark of consistent query
//! answering.
//!
//! ```text
//! cargo run --release --manifest-path cqa_perf/Cargo.toml -- \
//!     --workload keys_serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` and `cqa_perf/README.md`):
//!
//! * `keys_serve` — `repaird` on loopback, two closed-loop clients, 90%
//!   point `certain` queries under a key (FO rewriting) and 10% mutations;
//! * `fd_ingest` — `repaird`, one closed-loop client streaming mutations
//!   over the F18 Orders/Cities instance (delta maintenance);
//! * `oneshot_fold` — the cold `repairctl cqa` pipeline per request over
//!   the F18 instance (load, check, hyper-graph, factored fold).
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records spans around each layer's public functions and
//! prints the per-layer metrics instead. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod client;
mod fd_ingest;
mod instances;
mod keys_serve;
mod layers;
mod mirror;
mod oneshot_fold;
mod ops;
mod serving;
mod stats;
mod trace;

use layers::Layers;
use mirror::{LoadInfo, Mirror};
use serving::{latencies, split, OpRecord};
use stats::{Report, Samples};
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Worker threads of the `cqa-exec` pool, pinned so that runs compare
/// across machines with other core counts.
pub const THREADS: usize = 2;
/// The tail percentile each run prints: the highest that leaves at least
/// ten samples beyond it at the 20 s run length (over 2,000 operations on
/// the server workloads, about 28 requests on `oneshot_fold`). The tail is
/// printed but not part of the result line: on a shared 2-core host it
/// moved by 21–35% (interquartile range over median) across ten seeds on
/// `keys_serve`, wider than the 25% cap on a regression bound.
pub const TAIL_PCT_SERVE: f64 = 99.0;
pub const TAIL_PCT_ONESHOT: f64 = 60.0;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|_| "--seconds expects a number")?
                }
                "--trace" => trace = value()? == "1",
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Where a run keeps its scratch files (spans, input files): `.cqa_perf/`
/// under the current directory.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".cqa_perf");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// What a `repaird` workload measured, gathered for [`ServerRun::finish`].
pub struct ServerRun {
    setup_s: f64,
    log: Vec<OpRecord>,
    elapsed_s: f64,
    traced: Option<(trace::Recorder, LoadInfo, Mirror, Vec<OpRecord>)>,
    pub cache: (u64, u64),
    pub refused: u64,
}

impl ServerRun {
    pub fn new(setup_s: f64) -> ServerRun {
        ServerRun {
            setup_s,
            log: Vec::new(),
            elapsed_s: 0.0,
            traced: None,
            cache: (0, 0),
            refused: 0,
        }
    }

    pub fn traced(
        &mut self,
        rec: trace::Recorder,
        info: LoadInfo,
        mirror: Mirror,
        log: Vec<OpRecord>,
    ) {
        self.traced = Some((rec, info, mirror, log));
    }

    pub fn untraced(&mut self, log: Vec<OpRecord>, elapsed_s: f64) {
        self.log = log;
        self.elapsed_s = elapsed_s;
    }

    pub fn finish(self, args: &Args) -> Report {
        let mut report = Report::new();
        let traced_log = self.traced.as_ref().map_or(&[][..], |t| &t.3[..]);
        for r in self.log.iter().chain(traced_log) {
            report.attempted += 1;
            report.failed += u64::from(r.failed());
        }
        let (queries, mutations) = split(&self.log);
        let all = latencies(&self.log);
        println!("{}", queries.describe("query", TAIL_PCT_SERVE));
        println!("{}", mutations.describe("mutate", TAIL_PCT_SERVE));
        println!("{}", all.describe("op", TAIL_PCT_SERVE));
        match self.traced {
            None => {
                let completed = self.log.iter().filter(|r| !r.failed()).count();
                end_to_end(
                    &mut report,
                    self.setup_s,
                    all.percentile(50.0).unwrap_or(f64::INFINITY),
                    completed as f64 / self.elapsed_s,
                    stats::peak_rss_mib(),
                );
            }
            Some((rec, info, mirror, traced_log)) => {
                let mut layers = Layers::default();
                layers.add_spans(&rec, true);
                layers.set("relation.load_mib", info.heap_mib);
                graph_counts(&mut layers, info.graph);
                layers.set("core.maintain_recompute", mirror.recomputed as f64);
                let traced_queries = traced_log.iter().filter(|r| r.op.is_query()).count().max(1);
                layers.set(
                    "exec.budget_steps",
                    mirror.budget_steps as f64 / traced_queries as f64,
                );
                let ops = traced_log.len().max(1) as f64;
                layers.set("query.plan_cache_hits", self.cache.0 as f64 / ops);
                layers.set("query.plan_cache_misses", self.cache.1 as f64 / ops);
                layers.set("server.refused", self.refused as f64);
                layers.set(
                    "trace.overhead_pct",
                    overhead_pct(&latencies(&traced_log), &all),
                );
                println!(
                    "maintenance calls={} recomputed={}",
                    mirror.maintained, mirror.recomputed
                );
                write_spans(args, &rec);
                layers.emit(&mut report);
            }
        }
        report
    }
}

/// Tracing overhead: the traced requests' median round trip against the
/// untraced phase's, in percent.
pub fn overhead_pct(traced: &Samples, untraced: &Samples) -> f64 {
    match (traced.percentile(50.0), untraced.percentile(50.0)) {
        (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    }
}

pub fn graph_counts(layers: &mut Layers, graph: mirror::GraphCounts) {
    layers.set("constraints.edges", graph.edges as f64);
    layers.set("constraints.components", graph.components as f64);
    layers.set("constraints.largest_component", graph.largest as f64);
    println!(
        "deterministic counts: edges={} components={} largest={}",
        graph.edges, graph.components, graph.largest
    );
}

/// The end-to-end metrics every workload reports.
pub fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    p50_ms: f64,
    ops_per_s: f64,
    peak_rss_mib: f64,
) {
    report.metric("setup_s", setup_s, "s");
    report.metric("op_p50_ms", p50_ms, "ms");
    report.metric("ops_per_s", ops_per_s, "1/s");
    report.metric("peak_rss_mib", peak_rss_mib, "MiB");
}

pub fn write_spans(args: &Args, rec: &trace::Recorder) {
    let written = scratch_dir().and_then(|dir| {
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        rec.write_jsonl(&path).map_err(|e| e.to_string())?;
        Ok(path)
    });
    match written {
        Ok(path) => println!("{} spans written to {}", rec.len(), path.display()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    cqa_exec::set_threads(THREADS);
    cqa_exec::set_plan_cache(Some(true));
    let outcome = match args.workload.as_str() {
        "keys_serve" => keys_serve::run(&args),
        "fd_ingest" => fd_ingest::run(&args),
        "oneshot_fold" => oneshot_fold::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match outcome {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
