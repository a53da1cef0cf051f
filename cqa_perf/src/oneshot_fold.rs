//! `oneshot_fold`: the cold `repairctl cqa` pipeline, run once per request
//! by one sequential caller over the F18 Orders/Cities instance. Each
//! request reads the codec and Σ files, loads, checks consistency, builds
//! the conflict hyper-graph and its components and folds the factored
//! repair family; the subplan cache is reset first, as a fresh process has
//! it. The answers must equal `consistent_answers_factored_budgeted` on
//! the same files.

use crate::layers::Layers;
use crate::mirror::{graph_replay, GraphCounts};
use crate::stats::{Report, Samples};
use crate::trace::Recorder;
use crate::{end_to_end, graph_counts, overhead_pct, scratch_dir, write_spans, Args};
use cqa_core::{
    answer_consistently_budgeted, consistent_answers_factored_budgeted, plan_diagnostics,
    RepairClass, Strategy,
};
use cqa_exec::Budget;
use cqa_query::UnionQuery;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const ORDERS: usize = 10_000;
pub const QUERY: &str = "Q(c, r) :- Orders(o, c, x, s, a), Cities(x, r)";

struct Files {
    db: PathBuf,
    sigma: PathBuf,
}

impl Files {
    fn args(&self) -> Vec<String> {
        [
            "cqa",
            "--db",
            &self.db.display().to_string(),
            "--constraints",
            &self.sigma.display().to_string(),
            "--query",
            QUERY,
            "--threads",
            &crate::THREADS.to_string(),
        ]
        .map(str::to_string)
        .to_vec()
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.db);
        let _ = std::fs::remove_file(&self.sigma);
    }
}

/// The answer block `repairctl cqa` prints after its strategy and notes.
fn answer_block(output: &str) -> Option<&str> {
    let start = output.find(" consistent answers\n")?;
    let line_start = output[..start].rfind('\n').map_or(0, |i| i + 1);
    Some(&output[line_start..])
}

/// One request: the `repairctl cqa` entry point, cold.
fn request(files: &Files, expected: &str) -> Result<(), String> {
    cqa_query::reset_plan_cache();
    let mut out = String::new();
    let code = cqa_cli::run(&files.args(), &mut out)?;
    if code != 0 {
        return Err(format!("repairctl cqa exited {code}: {out}"));
    }
    match answer_block(&out) {
        Some(block) if block == expected => Ok(()),
        _ => Err(format!("answers differ from the oracle:\n{out}")),
    }
}

/// Deterministic per-request counts; they must repeat on every request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    graph: GraphCounts,
    fold_repairs: usize,
    cache_hits: u64,
    cache_misses: u64,
    budget_steps: u64,
}

/// Replay one request through each layer's public function.
fn replay(
    rec: &mut Recorder,
    parent: usize,
    id: u64,
    files: &Files,
    expected: &str,
) -> Result<(Counts, f64), String> {
    let db_text = std::fs::read_to_string(&files.db).map_err(|e| e.to_string())?;
    let sigma_text = std::fs::read_to_string(&files.sigma).map_err(|e| e.to_string())?;
    let (db, _) = rec.time("relation.load", Some(parent), id, || {
        cqa_relation::load(&db_text)
    });
    let db = db.map_err(|e| e.to_string())?;
    let heap_mib = db.heap_bytes() as f64 / (1024.0 * 1024.0);
    let sigma = cqa_constraints::parse_constraints(&sigma_text).map_err(|e| e.to_string())?;
    let query = UnionQuery::single(cqa_query::parse_query(QUERY).map_err(|e| e.to_string())?);
    let budget = Budget::unlimited();
    cqa_query::reset_plan_cache();
    let (planned, answer) = rec.time("core.answer", Some(parent), id, || {
        answer_consistently_budgeted(&db, &sigma, &query, &budget)
    });
    let cache = cqa_query::plan_cache_stats();
    let planned = planned.map_err(|e| e.to_string())?.into_value();
    let Strategy::FactoredEnumeration { factorization, .. } = &planned.strategy else {
        return Err(format!(
            "the planner chose {:?}, not the factored fold",
            planned.strategy
        ));
    };
    rec.time("core.plan", Some(answer), id, || {
        plan_diagnostics(&db, &sigma, &query)
    });
    let (consistent, _) = rec.time("constraints.check", Some(answer), id, || {
        sigma.is_satisfied(&db)
    });
    if consistent.map_err(|e| e.to_string())? {
        return Err("the instance is consistent".into());
    }
    cqa_query::reset_plan_cache();
    let (folded, fold) = rec.time("core.fold", Some(answer), id, || {
        consistent_answers_factored_budgeted(
            &db,
            &sigma,
            &query,
            &RepairClass::Subset,
            &Budget::unlimited(),
        )
    });
    let folded = folded
        .map_err(|e| e.to_string())?
        .ok_or("no factored fold for this Σ")?
        .into_value()
        .0;
    let graph = graph_replay(rec, fold, id, &sigma, &db)?;
    if render(&planned.answers) != expected || render(&folded) != expected {
        return Err("a replayed layer disagrees with the oracle".into());
    }
    let counts = Counts {
        graph,
        fold_repairs: factorization.factored_repairs,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        budget_steps: budget.steps_used(),
    };
    Ok((counts, heap_mib))
}

fn render(answers: &std::collections::BTreeSet<cqa_relation::Tuple>) -> String {
    let mut out = format!("{} consistent answers\n", answers.len());
    for t in answers {
        out.push_str(&format!("  {t}\n"));
    }
    out
}

fn write_files(dir: &Path, db: &cqa_relation::Database, sigma_text: &str) -> Result<Files, String> {
    let pid = std::process::id();
    let files = Files {
        db: dir.join(format!("orders-{pid}.idb")),
        sigma: dir.join(format!("sigma-{pid}.txt")),
    };
    std::fs::write(&files.db, cqa_relation::save(db)).map_err(|e| e.to_string())?;
    std::fs::write(&files.sigma, sigma_text).map_err(|e| e.to_string())?;
    Ok(files)
}

/// Requests until `until`; failed ones count as `+∞`. Also returns the
/// peak resident set size of each request, as a fresh `repairctl cqa`
/// process would have it, when the kernel lets the peak be reset.
fn timed(
    files: &Files,
    expected: &str,
    until: Instant,
    report: &mut Report,
) -> (Samples, Vec<f64>) {
    let mut samples = Samples::default();
    let mut peaks = Vec::new();
    while Instant::now() < until {
        let reset = crate::stats::reset_peak_rss();
        let start = Instant::now();
        let outcome = request(files, expected);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if reset {
            peaks.push(crate::stats::peak_rss_mib());
        }
        report.attempted += 1;
        match outcome {
            Ok(()) => samples.push(ms),
            Err(e) => {
                report.failed += 1;
                samples.push(f64::INFINITY);
                report.wrong(e);
            }
        }
    }
    (samples, peaks)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (db, _) = crate::instances::f18(ORDERS, args.seed);
    let sigma_text = crate::fd_ingest::SIGMA;
    let dir = scratch_dir()?;
    let sigma = cqa_constraints::parse_constraints(sigma_text).map_err(|e| e.to_string())?;
    let query = UnionQuery::single(cqa_query::parse_query(QUERY).map_err(|e| e.to_string())?);
    // The oracle runs on the instance as the files will hold it.
    let loaded = cqa_relation::load(&cqa_relation::save(&db)).map_err(|e| e.to_string())?;
    let oracle = consistent_answers_factored_budgeted(
        &loaded,
        &sigma,
        &query,
        &RepairClass::Subset,
        &Budget::unlimited(),
    )
    .map_err(|e| e.to_string())?
    .ok_or("no factored fold for this Σ")?;
    if oracle.is_truncated() {
        return Err("the oracle was truncated".into());
    }
    let expected = render(&oracle.into_value().0);
    drop(loaded);

    // Set-up: serialize and write the files, then one cold request.
    let mut setups = Vec::new();
    let mut files = None;
    for _ in 0..crate::SETUPS {
        let start = Instant::now();
        let f = write_files(&dir, &db, sigma_text)?;
        request(&f, &expected)?;
        setups.push(start.elapsed().as_secs_f64());
        files = Some(f);
    }
    let files = files.ok_or("no set-up ran")?;
    drop(db);
    let setup_s = crate::stats::median(&setups);

    let mut report = Report::new();
    let outcome = if args.trace {
        traced(args, &files, &expected, &mut report)
    } else {
        let start = Instant::now();
        let (samples, peaks) = timed(
            &files,
            &expected,
            start + Duration::from_secs_f64(args.seconds),
            &mut report,
        );
        let elapsed = start.elapsed().as_secs_f64();
        println!("{}", samples.describe("op", crate::TAIL_PCT_ONESHOT));
        let completed = report.attempted - report.failed;
        // The median request's peak stands for one cold process; without the
        // reset the whole run's peak is reported.
        let peak = if peaks.is_empty() {
            crate::stats::peak_rss_mib()
        } else {
            crate::stats::median(&peaks)
        };
        let ops_per_s = completed as f64 / elapsed;
        end_to_end(
            &mut report,
            setup_s,
            samples.percentile(50.0).unwrap_or(f64::INFINITY),
            ops_per_s,
            peak,
        );
        Ok(())
    };
    files.remove();
    outcome.map(|()| report)
}

fn traced(args: &Args, files: &Files, expected: &str, report: &mut Report) -> Result<(), String> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let until = origin + Duration::from_secs_f64(args.seconds / 2.0);
    let mut traced_samples = Samples::default();
    let mut first: Option<(Counts, f64)> = None;
    let mut id = 0;
    while Instant::now() < until {
        id += 1;
        let span = rec.open("request", None, id);
        let outcome = request(files, expected);
        rec.close(span);
        report.attempted += 1;
        if let Err(e) = outcome {
            report.failed += 1;
            traced_samples.push(f64::INFINITY);
            report.wrong(e);
            continue;
        }
        traced_samples.push(rec.duration_ms(span));
        let counts = replay(&mut rec, span, id, files, expected)?;
        match &first {
            None => first = Some(counts),
            Some((c, _)) if *c != counts.0 => report.wrong(format!(
                "deterministic counts changed: {c:?} then {:?}",
                counts.0
            )),
            Some(_) => {}
        }
    }
    let untraced_until = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let (untraced, _) = timed(files, expected, untraced_until, report);
    let (counts, heap_mib) = first.ok_or("no traced request completed")?;
    println!("{counts:?}");
    let mut layers = Layers::default();
    layers.add_spans(&rec, false);
    layers.set("relation.load_mib", heap_mib);
    graph_counts(&mut layers, counts.graph);
    layers.set("core.fold_repairs", counts.fold_repairs as f64);
    layers.set("query.plan_cache_hits", counts.cache_hits as f64);
    layers.set("query.plan_cache_misses", counts.cache_misses as f64);
    layers.set("exec.budget_steps", counts.budget_steps as f64);
    layers.set(
        "trace.overhead_pct",
        overhead_pct(&traced_samples, &untraced),
    );
    write_spans(args, &rec);
    layers.emit(report);
    Ok(())
}
