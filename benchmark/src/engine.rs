//! The direct-call phases: no sockets, the `content`/`discovery`/`exec`
//! layers do all the work and `server` none.

use crate::deploy::Deployment;
use crate::inputs::{BATCH_SEEKERS, K};
use crate::serving::query_of;
use crate::trace::{Trace, ROOT};
use socialscope_content::{BatchOptions, BatchScratchPool};
use socialscope_exec::Exec;
use socialscope_graph::NodeId;
use std::hint::black_box;
use std::time::Instant;

/// Single-seeker `query` calls timed per run of the singles phase.
pub const SINGLE_QUERIES: usize = 20_000;

pub struct BatchRun {
    pub queries: usize,
    pub wall_s: f64,
}

impl BatchRun {
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_s
    }
}

/// Rotate over the keyword sets for `seconds`, from the first; each step
/// serves one set to its seekers through `query_batch_opts` on `exec` with
/// a persistent scratch pool. `seekers_of(set)` picks the seekers. One
/// rotation goes by before the clock starts: the phase before this one has
/// left other data in the caches. Traced, each step is a
/// `content.clustered_batch` span. No seeker is unclustered here, so the
/// call is `ClusteredIndex::query_batch_opts` plus a scan for fallback flags.
pub fn batches<'a>(
    dep: &'a Deployment,
    exec: &Exec,
    seekers_of: impl Fn(usize) -> &'a [NodeId],
    seconds: f64,
    trace: &mut Trace,
) -> BatchRun {
    let engine = &dep.engine;
    let sets = &dep.inputs.keyword_sets;
    let mut pool = BatchScratchPool::default();
    for (set, keywords) in sets.iter().enumerate() {
        let opts = BatchOptions::new().exec(exec).scratch_pool(&mut pool);
        black_box(engine.query_batch_opts(seekers_of(set), keywords, K, opts));
    }
    let mut queries = 0;
    let start = Instant::now();
    let mut step = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let set = &sets[step % sets.len()];
        let seekers = seekers_of(step % sets.len());
        let opts = BatchOptions::new().exec(exec).scratch_pool(&mut pool);
        queries += trace.call(ROOT, step as u64, "content.clustered_batch", || {
            black_box(engine.query_batch_opts(seekers, set, K, opts).len())
        });
        step += 1;
    }
    BatchRun { queries, wall_s: start.elapsed().as_secs_f64() }
}

/// [`SINGLE_QUERIES`] single-seeker `query` calls, each timed: microseconds.
pub fn singles(dep: &Deployment) -> Vec<f64> {
    (0..SINGLE_QUERIES)
        .map(|i| {
            let (seeker, keywords) = query_of(dep, i);
            let start = Instant::now();
            black_box(dep.engine.query(seeker, keywords, K));
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect()
}

/// Work counters over one full rotation of the generated batches: they
/// depend on the inputs alone and repeat exactly.
pub struct Counters {
    pub sorted_accesses_per_query: f64,
    pub exact_computations_per_query: f64,
    pub empty_query_share: f64,
}

pub fn counters(dep: &Deployment) -> Counters {
    let mut pool = BatchScratchPool::default();
    let (mut queries, mut sorted, mut exact, mut empty) = (0usize, 0usize, 0usize, 0usize);
    for (set, seekers) in dep.inputs.keyword_sets.iter().zip(&dep.inputs.batch_seekers) {
        let opts = BatchOptions::new().exec(&dep.exec).scratch_pool(&mut pool);
        for report in dep.engine.query_batch_opts(seekers, set, K, opts) {
            queries += 1;
            sorted += report.result.sorted_accesses;
            exact += report.result.exact_computations;
            empty += usize::from(report.result.ranked.iter().all(|(_, score)| *score <= 0.0));
        }
    }
    let per_query = |count: usize| count as f64 / queries as f64;
    Counters {
        sorted_accesses_per_query: per_query(sorted),
        exact_computations_per_query: per_query(exact),
        empty_query_share: per_query(empty),
    }
}

/// The fallback `ExactIndex::query_batch_opts` on every generated batch,
/// one span each, on one thread like the batch loop.
pub fn exact_batches(dep: &Deployment, trace: &mut Trace) {
    let exact = dep.engine.fallback().expect("the engine carries an exact fallback");
    let mut pool = BatchScratchPool::default();
    for (step, (set, seekers)) in
        dep.inputs.keyword_sets.iter().zip(&dep.inputs.batch_seekers).enumerate()
    {
        let opts = BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool);
        trace.call(ROOT, step as u64, "content.exact_batch", || {
            black_box(exact.query_batch_opts(seekers, set, K, opts).len())
        });
    }
}

/// [`BATCH_SEEKERS`] seekers that all sit in one cluster (its members,
/// cycled), so that the gather cache always hits.
pub fn same_cluster_seekers(dep: &Deployment) -> Vec<NodeId> {
    let clustering = &dep.engine.index().clustering;
    let (_, members) = clustering
        .iter()
        .max_by_key(|(id, members)| (members.len(), std::cmp::Reverse(id.0)))
        .expect("the site has a cluster");
    members.iter().copied().cycle().take(BATCH_SEEKERS).collect()
}

/// `Exec::run_sharded` over empty work, one span per call.
pub fn fanout(exec: &Exec, calls: usize, trace: &mut Trace) {
    for call in 0..calls {
        trace.call(ROOT, call as u64, "exec.fanout", || {
            black_box(exec.run_sharded(BATCH_SEEKERS, 1, |shard, _| shard).len())
        });
    }
}

/// Replay the first `batches` event batches in-process, each on clones of
/// the state the previous one left: the three parts of an engine apply on
/// their own, then the whole-engine `try_apply_with`, whose excess over
/// the parts is what cloning and committing cost. Returns the changed
/// bound-list entries per batch, a count the inputs fix.
pub fn replay_applies(dep: &Deployment, batches: usize, trace: &mut Trace) -> f64 {
    let mut engine = dep.engine.clone();
    let mut changed = 0usize;
    let writes = &dep.inputs.writes[..batches.min(dep.inputs.writes.len())];
    for (batch, events) in writes.iter().enumerate() {
        let id = batch as u64;
        let mut site = engine.site().clone();
        trace
            .call(ROOT, id, "content.apply_site", || site.try_apply(events))
            .expect("a generated batch applies to the site");
        let mut exact = engine.fallback().expect("the engine carries a fallback").clone();
        trace
            .call(ROOT, id, "content.apply_exact", || {
                exact.try_apply_with(&dep.exec, &site, events)
            })
            .expect("a generated batch applies to the exact index");
        let mut clustered = engine.index().clone();
        changed += trace
            .call(ROOT, id, "content.apply_clustered", || {
                clustered.try_apply_with(&dep.exec, &site, events)
            })
            .expect("a generated batch applies to the clustered index")
            .changed_entries;
        trace
            .call(ROOT, id, "discovery.try_apply", || engine.try_apply_with(&dep.exec, events))
            .expect("a generated batch applies to the engine");
    }
    changed as f64 / writes.len().max(1) as f64
}
