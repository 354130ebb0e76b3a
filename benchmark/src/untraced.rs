//! An untraced run: the end-to-end metrics of one workload.

use crate::deploy::Deployment;
use crate::run::{percentile_or_exit, Run, Settings};
use crate::serving::{self, Cursor, PACED_RATE};
use crate::stats::median;
use crate::trace::Trace;
use crate::{engine, metrics, pipeline};
use socialscope_exec::Exec;

/// `--seconds` is cut into rounds of this many seconds. Every round runs
/// every phase of the workload for its share of the round, and a metric is
/// its best round. The neighbours of a shared box slow memory-bound work by
/// 10 to 20% for seconds at a time; that only ever slows, so the best round
/// is the least disturbed one. On the reference box the best of eight rounds
/// repeats within 3 to 8%, the median round within 13%, and a whole-phase
/// p99 not at all (197 to 1 987 us).
const ROUND_SECONDS: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    HttpQuery,
    HttpMixed,
    EngineBatch,
    PaperPipeline,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Open loop, queries only: `query_p50_us`, `query_p98_us`.
    PacedQuery,
    /// The same beside one writer: those two and `apply_p50_ms`.
    PacedMixed,
    /// Closed loop: `saturation_rps`.
    Saturation,
    /// Writes with no reader beside them: `apply_p50_ms`.
    Applies,
    /// Batches, then single queries: `batch_qps`, `single_query_us`.
    EngineBatch,
    /// `pipeline_per_s`.
    Pipeline,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::HttpQuery, Workload::HttpMixed, Workload::EngineBatch, Workload::PaperPipeline];

    pub fn name(self) -> &'static str {
        metrics::WORKLOADS[self as usize].name
    }

    /// The phases of a round and each one's share of it. The phases a
    /// workload exists for get the long slices. The driver reads every
    /// end-to-end metric from every run, so the metrics a workload does not
    /// own come from short slices of the other phases: the same code,
    /// measured for less time. The paced phase never gets less than 0.35 of
    /// a round: 1 400 requests, 28 beyond the p98.
    fn plan(self) -> &'static [(Phase, f64)] {
        use Phase::*;
        match self {
            Workload::HttpQuery => &[
                (PacedQuery, 0.40),
                (Saturation, 0.20),
                (Applies, 0.10),
                (EngineBatch, 0.15),
                (Pipeline, 0.15),
            ],
            Workload::HttpMixed => {
                &[(Saturation, 0.15), (PacedMixed, 0.55), (EngineBatch, 0.15), (Pipeline, 0.15)]
            }
            Workload::EngineBatch => &[
                (PacedQuery, 0.35),
                (Saturation, 0.10),
                (Applies, 0.10),
                (EngineBatch, 0.35),
                (Pipeline, 0.15),
            ],
            Workload::PaperPipeline => &[
                (PacedQuery, 0.35),
                (Saturation, 0.10),
                (Applies, 0.10),
                (EngineBatch, 0.15),
                (Pipeline, 0.30),
            ],
        }
    }
}

/// One round's writes. A round that sent none (a run much longer than the
/// driver's uses up the generated batches) leaves the metric to the others.
fn record_applies(run: &mut Run, round_trips_ms: &[f64], failed: usize) {
    if !round_trips_ms.is_empty() {
        run.best("apply_p50_ms", median(round_trips_ms));
    }
    run.count(round_trips_ms.len() + failed, failed);
}

fn round(
    workload: Workload,
    seconds: f64,
    dep: &Deployment,
    cursor: &mut Cursor,
    fastest: &mut pipeline::Fastest,
    run: &mut Run,
) {
    let off = &mut Trace::off();
    for &(phase, share) in workload.plan() {
        let seconds = share * seconds;
        match phase {
            Phase::PacedQuery | Phase::PacedMixed => {
                let writer = phase == Phase::PacedMixed;
                let paced = serving::paced(dep, cursor, PACED_RATE, seconds, writer, off);
                run.best(
                    "query_p50_us",
                    percentile_or_exit(&paced.load.latencies_us, 50.0, "paced phase"),
                );
                run.best(
                    "query_p98_us",
                    percentile_or_exit(&paced.load.latencies_us, 98.0, "paced phase"),
                );
                run.count(paced.load.attempted, paced.load.failed);
                record_applies(run, &paced.load.write_ms, paced.load.writes_failed);
            }
            Phase::Saturation => {
                let load = serving::saturation(dep, cursor, seconds);
                run.best("saturation_rps", load.completed() as f64 / load.wall_s);
                run.count(load.attempted, load.failed);
            }
            Phase::Applies => {
                let (round_trips_ms, failed) = serving::applies(dep, cursor, seconds);
                record_applies(run, &round_trips_ms, failed);
            }
            Phase::EngineBatch => {
                let generated = |set: usize| dep.inputs.batch_seekers[set].as_slice();
                // On one thread: see the README on why not `Exec(nproc)`.
                let batches = engine::batches(dep, &Exec::sequential(), generated, seconds, off);
                run.best("batch_qps", batches.qps());
                run.best("single_query_us", median(&engine::singles(dep)));
                run.count(batches.queries + engine::SINGLE_QUERIES, 0);
            }
            Phase::Pipeline => {
                let ops = pipeline::run(&dep.pipeline, fastest, seconds, off);
                run.count(ops.operations, 0);
            }
        }
    }
}

pub fn run(workload: Workload, settings: Settings) -> Run {
    let (dep, mut run, mut cursor, setups) = Run::begin(settings, &mut Trace::off());
    run.set("setup_s", median(&setups));
    run.set(
        "heap_bytes_per_user",
        dep.engine.memory_profile().total() as f64 / dep.users.len() as f64,
    );
    let rounds = (settings.seconds / ROUND_SECONDS).floor().max(1.0);
    let mut fastest = pipeline::Fastest::default();
    for _ in 0..rounds as usize {
        round(workload, settings.seconds / rounds, &dep, &mut cursor, &mut fastest, &mut run);
    }
    run.set("pipeline_per_s", fastest.per_second());
    run.end(&dep, &cursor)
}
