//! The paper-facing logical stack: discover → organize → explain →
//! recommend on the social content graph, none of the index or serving
//! code. One operation is what a reader of the paper would run for one
//! (user, query) pair.

use crate::deploy::PipelineSite;
use crate::trace::{Trace, ROOT};
use socialscope_algebra::prelude::*;
use socialscope_discovery::{
    collaborative_filtering_plan, recommend_for_user, InformationDiscoverer, UserQuery,
};
use socialscope_graph::{NodeId, SocialGraph};
use socialscope_presentation::{group_explanation, InformationOrganizer};
use std::hint::black_box;
use std::time::Instant;

/// Recommendations asked for per operation.
const RECOMMENDATIONS: usize = 10;

/// What one operation saw of the plan optimiser.
pub struct PlanSizes {
    pub before: usize,
    pub after: usize,
}

/// One full operation for pair `index`, each public call a child span.
pub fn operation(site: &PipelineSite, index: usize, trace: &mut Trace) -> PlanSizes {
    let (user, text) = &site.pairs[index % site.pairs.len()];
    let (graph, user, id) = (&site.graph, *user, index as u64);
    trace.span(ROOT, id, "pipeline.operation", |trace, op| {
        let query = UserQuery::keywords_for(user, text);
        let msg = trace.call(op, id, "discovery.discover", || {
            InformationDiscoverer::default().discover(graph, &query)
        });
        let presentations = trace.call(op, id, "presentation.organize", || {
            InformationOrganizer::default().best_presentation(graph, &msg, "keywords")
        });
        trace.call(op, id, "presentation.explain", || {
            // The most meaningful presentation is the one a user is shown.
            for group in presentations.first().into_iter().flat_map(|p| &p.groups) {
                black_box(group_explanation(graph, user, group));
            }
        });
        trace.call(op, id, "discovery.recommend", || {
            black_box(recommend_for_user(graph, user, &query.keywords, RECOMMENDATIONS))
        });
        // Plan-based collaborative filtering: Example 5 as a logical plan,
        // rewritten by the optimiser and run by the evaluator.
        let plan = collaborative_filtering_plan(user);
        let (optimized, report) =
            trace.call(op, id, "algebra.optimize", || Optimizer::new().optimize(&plan));
        trace
            .call(op, id, "algebra.eval", || Evaluator::new(graph).evaluate(&optimized))
            .expect("the collaborative-filtering plan evaluates");
        PlanSizes { before: report.size_before, after: report.size_after }
    })
}

/// The fastest run so far of each pair's operation, and which pair is next.
/// The pairs are run in order, round after round, for as long as the
/// workload gives the phase; a pair's time is its least disturbed run.
#[derive(Default)]
pub struct Fastest {
    seconds: Vec<f64>,
    next: usize,
}

impl Fastest {
    /// Operations per second with every pair at its fastest: the pairs
    /// over the sum of their times.
    pub fn per_second(&self) -> f64 {
        self.seconds.len() as f64 / self.seconds.iter().sum::<f64>()
    }
}

pub struct PipelineRun {
    pub operations: usize,
    pub plan: PlanSizes,
}

/// Single thread, closed loop: operations back to back for `seconds`, and
/// until every pair has run once.
pub fn run(
    site: &PipelineSite,
    fastest: &mut Fastest,
    seconds: f64,
    trace: &mut Trace,
) -> PipelineRun {
    fastest.seconds.resize(site.pairs.len(), f64::INFINITY);
    let start = Instant::now();
    let mut operations = 0;
    let mut plan = PlanSizes { before: 0, after: 0 };
    while start.elapsed().as_secs_f64() < seconds || fastest.seconds.contains(&f64::INFINITY) {
        let pair = fastest.next % site.pairs.len();
        let began = Instant::now();
        plan = operation(site, pair, trace);
        fastest.seconds[pair] = fastest.seconds[pair].min(began.elapsed().as_secs_f64());
        fastest.next += 1;
        operations += 1;
    }
    PipelineRun { operations, plan }
}

/// The base-graph scan a plan's leaves perform, one span per call.
pub fn link_selects(graph: &SocialGraph, calls: usize, trace: &mut Trace) {
    let visits = Condition::on_attr("type", "visit");
    for call in 0..calls {
        trace.call(ROOT, call as u64, "graph.link_select", || {
            black_box(link_select(graph, &visits, None).link_count())
        });
    }
}

/// The scored links of a plan result, in a canonical order.
fn scored_links(graph: &SocialGraph) -> Vec<(NodeId, NodeId, f64)> {
    let mut links: Vec<_> = graph
        .links()
        .map(|l| (l.src, l.tgt, l.attrs.get_f64("score").unwrap_or(f64::NAN)))
        .collect();
    links.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
    links
}

/// The same links with the same scores. A rewrite may sum an average in
/// another order, so scores are compared to nine places.
fn same_result(a: &SocialGraph, b: &SocialGraph) -> bool {
    let (a, b) = (scored_links(a), scored_links(b));
    a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| (x.0, x.1) == (y.0, y.1) && (x.2 - y.2).abs() <= 1e-9)
}

/// Correctness of the logical stack, for the first `pairs` pairs: the
/// optimised plan gives the unoptimised plan's result, and collaborative
/// filtering never recommends an item the user has visited.
pub fn check(site: &PipelineSite, pairs: usize) -> Result<(), String> {
    let graph = &site.graph;
    for (user, _) in site.pairs.iter().take(pairs) {
        let plan = collaborative_filtering_plan(*user);
        let (optimized, _) = Optimizer::new().optimize(&plan);
        let mut evaluator = Evaluator::new(graph);
        let plain = evaluator.evaluate(&plan).map_err(|e| format!("plan failed: {e}"))?;
        let rewritten =
            evaluator.evaluate(&optimized).map_err(|e| format!("optimised plan failed: {e}"))?;
        if !same_result(&plain, &rewritten) {
            return Err(format!("optimised plan differs from the plan for user {user:?}"));
        }
        let visited: Vec<NodeId> =
            graph.out_links(*user).filter(|l| l.has_type("visit")).map(|l| l.tgt).collect();
        let recommended = recommend_for_user(graph, *user, &[], RECOMMENDATIONS);
        if let Some(hit) =
            recommended.iter().find(|r| r.strategy == "algebra_cf" && visited.contains(&r.item))
        {
            return Err(format!("user {user:?} was recommended visited item {:?}", hit.item));
        }
    }
    Ok(())
}
