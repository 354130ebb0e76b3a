//! A traced run: one fixed sweep over every layer, the same whatever
//! `--workload` says, because the driver reads every per-layer metric from
//! every traced run. Each timed phase alternates between span recording
//! off and on; the difference between the best of each is the tracing
//! overhead.

use crate::deploy::Deployment;
use crate::run::{percentile_or_exit, Run, Settings};
use crate::serving::{self, Cursor, Paced, LATENCY_LIMIT_US, PACED_RATE};
use crate::stats::{median, percentile, sorted};
use crate::trace::Trace;
use crate::{engine, pipeline};
use socialscope_exec::Exec;
use std::time::Instant;

/// Times a phase runs with recording off, and as often with it on.
const ALTERNATIONS: usize = 3;

/// The `p50` of the spans called `name`, in microseconds.
fn span_p50_us(trace: &Trace, name: &str) -> f64 {
    let durations = trace.durations_us(name);
    if durations.is_empty() {
        eprintln!("no `{name}` span was recorded");
        std::process::exit(1);
    }
    median(&durations)
}

fn set_span_p50s(run: &mut Run, trace: &Trace, scale: f64, spans: &[(&'static str, &str)]) -> f64 {
    let mut sum = 0.0;
    for &(metric, span) in spans {
        let p50 = span_p50_us(trace, span) * scale;
        run.set(metric, p50);
        sum += p50;
    }
    sum
}

/// Run `phase` [`ALTERNATIONS`] times with recording off and on in turn, and
/// set `metric` to how much worse the best traced value is than the best
/// untraced one, in percent. Returns the best untraced value.
fn overhead(
    run: &mut Run,
    metric: &'static str,
    higher_is_better: bool,
    mut phase: impl FnMut(&mut Run, bool) -> f64,
) -> f64 {
    let pick = |a: f64, b: f64| if higher_is_better { a.max(b) } else { a.min(b) };
    let (mut plain, mut traced) = (phase(run, false), phase(run, true));
    for _ in 1..ALTERNATIONS {
        plain = pick(plain, phase(run, false));
        traced = pick(traced, phase(run, true));
    }
    let worse = if higher_is_better { plain - traced } else { traced - plain };
    run.set(metric, 100.0 * worse / plain);
    plain
}

/// What the paced phases of a traced run add up to.
#[derive(Default)]
struct PacedTotals {
    phases: f64,
    batches_per_query: f64,
    degraded_share: f64,
    late_us: Vec<f64>,
    latencies_us: Vec<f64>,
    completed: usize,
    stalled: usize,
    in_limit: bool,
}

impl PacedTotals {
    fn add(&mut self, run: &mut Run, paced: &Paced, seconds: f64) -> f64 {
        let p50 = percentile_or_exit(&paced.load.latencies_us, 50.0, "paced phase");
        self.phases += 1.0;
        self.batches_per_query += paced.batches_per_query;
        self.degraded_share += paced.degraded_share;
        self.late_us.extend_from_slice(&paced.load.late_us);
        self.completed += paced.load.completed();
        self.stalled += paced.load.latencies_us.iter().filter(|&&us| us > 10.0 * p50).count();
        self.in_limit = in_limit(paced, seconds);
        self.latencies_us.extend_from_slice(&paced.load.latencies_us);
        run.count(paced.load.attempted, paced.load.failed);
        run.count(paced.load.write_ms.len() + paced.load.writes_failed, paced.load.writes_failed);
        p50
    }
}

/// A rung is in the limit while nothing fails, the last request completes
/// on schedule (no growing backlog) and the p99 stays under the limit.
fn in_limit(rung: &Paced, seconds: f64) -> bool {
    rung.load.failed == 0
        && rung.load.wall_s <= seconds * 1.02 + 0.05
        && percentile(&rung.load.latencies_us, 99.0).is_ok_and(|p99| p99 <= LATENCY_LIMIT_US)
}

/// `server` and `content::wire`: paced queries, the replay of every tenth
/// through the server's public calls, the rate ladder, writes beside reads.
fn serving_layers(run: &mut Run, dep: &Deployment, cursor: &mut Cursor, s: f64, trace: &mut Trace) {
    let on = Trace::new(true, trace.epoch());
    let seconds = 0.25 * s / (2 * ALTERNATIONS) as f64;
    let mut query_only = PacedTotals::default();
    overhead(run, "trace_overhead_pct.http_query", false, |run, traced| {
        let flags = if traced { &on } else { &Trace::off() };
        let mut paced = serving::paced(dep, cursor, PACED_RATE, seconds, false, flags);
        trace.absorb(std::mem::replace(&mut paced.load.trace, Trace::off()));
        query_only.add(run, &paced, seconds)
    });
    let latencies_us = sorted(std::mem::take(&mut query_only.latencies_us));
    run.set("server.query_p99_us", percentile_or_exit(&latencies_us, 99.0, "paced phases"));

    let request_p50 = span_p50_us(trace, "request");
    serving::replay(dep, trace);
    let replayed_us = set_span_p50s(
        run,
        trace,
        1.0,
        &[
            ("server.read_request_us", "server.read_request"),
            ("content.wire_decode_us", "content.wire_decode"),
            ("discovery.engine_query_us", "discovery.engine_query"),
            ("content.wire_encode_us", "content.wire_encode"),
            ("server.write_response_us", "server.write_response"),
        ],
    );
    // By construction: the replayed layers and the residual add up to the
    // traced request. The residual is the socket, the thread wake-ups, the
    // batcher and the reply channel: what the public calls do not cover.
    run.set("server.residual_us", request_p50 - replayed_us);

    let mut max_rate_in_limit = if query_only.in_limit { PACED_RATE } else { 0.0 };
    for rate in [8_000.0, 16_000.0] {
        let seconds = 0.05 * s;
        let rung = serving::paced(dep, cursor, rate, seconds, false, &Trace::off());
        run.count(rung.load.attempted, rung.load.failed);
        if in_limit(&rung, seconds) {
            max_rate_in_limit = rate;
        }
        if rate == 8_000.0 {
            let what = "8000 req/s rung";
            run.set(
                "server.paced8000_p50_us",
                percentile_or_exit(&rung.load.latencies_us, 50.0, what),
            );
            run.set(
                "server.paced8000_p99_us",
                percentile_or_exit(&rung.load.latencies_us, 99.0, what),
            );
        }
    }
    run.set("server.max_rate_in_limit_rps", max_rate_in_limit);

    let mut mixed = PacedTotals::default();
    overhead(run, "trace_overhead_pct.http_mixed", false, |run, traced| {
        let flags = if traced { &on } else { &Trace::off() };
        let paced = serving::paced(dep, cursor, PACED_RATE, seconds, true, flags);
        mixed.add(run, &paced, seconds)
    });
    run.set("server.reader_stall_share", mixed.stalled as f64 / mixed.completed as f64);
    let phases = query_only.phases + mixed.phases;
    run.set(
        "server.batches_per_query",
        (query_only.batches_per_query + mixed.batches_per_query) / phases,
    );
    run.set("server.degraded_share", (query_only.degraded_share + mixed.degraded_share) / phases);
    let late_us = sorted([query_only.late_us, mixed.late_us].concat());
    run.set(
        "server.generator_late_p99_us",
        percentile_or_exit(&late_us, 99.0, "generator lateness"),
    );
}

/// `content`, `discovery`, `exec`: batches straight into the engine, and
/// the parts of an apply on their own.
fn engine_layers(run: &mut Run, dep: &Deployment, s: f64, trace: &mut Trace) {
    let changed = engine::replay_applies(dep, 3, trace);
    run.set("content.apply_changed_entries", changed);
    set_span_p50s(
        run,
        trace,
        1e-3,
        &[
            ("content.apply_site_ms", "content.apply_site"),
            ("content.apply_exact_ms", "content.apply_exact"),
            ("content.apply_clustered_ms", "content.apply_clustered"),
            ("discovery.try_apply_ms", "discovery.try_apply"),
        ],
    );

    let generated = |set: usize| dep.inputs.batch_seekers[set].as_slice();
    let seconds = 0.15 * s / (2 * ALTERNATIONS) as f64;
    let one = Exec::sequential();
    let sequential_qps = overhead(run, "trace_overhead_pct.engine_batch", true, |run, traced| {
        let spans = if traced { &mut *trace } else { &mut Trace::off() };
        let batches = engine::batches(dep, &one, generated, seconds, spans);
        run.count(batches.queries, 0);
        batches.qps()
    });
    let off = &mut Trace::off();
    let sharded = engine::batches(dep, &dep.exec, generated, 0.05 * s, off);
    run.set("exec.batch_speedup", sharded.qps() / sequential_qps);
    let cluster = engine::same_cluster_seekers(dep);
    let same = engine::batches(dep, &one, |_| &cluster, 0.05 * s, off);
    run.set("content.same_cluster_batch_qps", same.qps());
    run.count(sharded.queries + same.queries, 0);
    engine::exact_batches(dep, trace);
    engine::fanout(&dep.exec, 1_000, trace);
    set_span_p50s(
        run,
        trace,
        1.0,
        &[
            ("content.clustered_batch_us", "content.clustered_batch"),
            ("content.exact_batch_us", "content.exact_batch"),
            ("exec.fanout_us", "exec.fanout"),
        ],
    );
    let counters = engine::counters(dep);
    run.set("content.sorted_accesses_per_query", counters.sorted_accesses_per_query);
    run.set("content.exact_computations_per_query", counters.exact_computations_per_query);
    run.set("content.empty_query_share", counters.empty_query_share);
}

/// `graph`, `algebra`, `discovery::discoverer`, `presentation`.
fn pipeline_layers(run: &mut Run, dep: &Deployment, s: f64, trace: &mut Trace) {
    let seconds = 0.15 * s / (2 * ALTERNATIONS) as f64;
    let mut plan = pipeline::PlanSizes { before: 0, after: 0 };
    overhead(run, "trace_overhead_pct.paper_pipeline", true, |run, traced| {
        let spans = if traced { &mut *trace } else { &mut Trace::off() };
        // The same pairs every time, so that off and on compare like work.
        let mut fastest = pipeline::Fastest::default();
        let ops = pipeline::run(&dep.pipeline, &mut fastest, seconds, spans);
        run.count(ops.operations, 0);
        plan = ops.plan;
        fastest.per_second()
    });
    run.set("algebra.plan_ops_before", plan.before as f64);
    run.set("algebra.plan_ops_after", plan.after as f64);
    pipeline::link_selects(&dep.pipeline.graph, 50, trace);
    set_span_p50s(
        run,
        trace,
        1.0,
        &[
            ("discovery.discover_us", "discovery.discover"),
            ("presentation.organize_us", "presentation.organize"),
            ("presentation.explain_us", "presentation.explain"),
            ("discovery.recommend_us", "discovery.recommend"),
            ("algebra.optimize_us", "algebra.optimize"),
            ("algebra.eval_us", "algebra.eval"),
            ("graph.link_select_us", "graph.link_select"),
        ],
    );
}

pub fn run(settings: Settings) -> Run {
    let mut trace = Trace::new(true, Instant::now());
    let (dep, mut run, mut cursor, _) = Run::begin(settings, &mut trace);
    set_span_p50s(
        &mut run,
        &trace,
        1e-6,
        &[
            ("workload.generate_site_s", "workload.generate_site"),
            ("content.cluster_s", "content.cluster"),
            ("content.exact_build_s", "content.exact_build"),
            ("content.clustered_build_s", "content.clustered_build"),
        ],
    );
    let s = settings.seconds;
    serving_layers(&mut run, &dep, &mut cursor, s, &mut trace);
    engine_layers(&mut run, &dep, s, &mut trace);
    pipeline_layers(&mut run, &dep, s, &mut trace);
    run.trace = trace;
    run.end(&dep, &cursor)
}
