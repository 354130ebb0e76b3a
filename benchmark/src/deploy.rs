//! Set-up: generate both sites, cluster, build both indexes, boot the
//! server in-process and pre-generate the requests. `setup_s` is the wall
//! time of [`Deployment::setup`], so work moved into set-up shows there.

use crate::affinity;
use crate::inputs::{self, Inputs, Scale};
use crate::trace::{Trace, ROOT};
use socialscope_content::{
    ClusteredIndex, ClusteringStrategy, ExactIndex, NetworkBasedClustering, SiteModel,
};
use socialscope_discovery::analyzer::similarity::derive_similarity_links;
use socialscope_discovery::{ClusteredNetworkAwareSearch, ContentAnalyzer};
use socialscope_exec::Exec;
use socialscope_graph::{NodeId, SocialGraph};
use socialscope_server::{ServerConfig, ServerHandle};
use socialscope_workload::generate_site;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Clustering threshold θ of the served engine.
const THETA: f64 = 0.3;
/// `match`-link threshold of the logical-graph site.
const MATCH_THRESHOLD: f64 = 0.15;

/// The logical graph the paper pipeline runs on, with `match` links,
/// topics and `belong` links materialised.
pub struct PipelineSite {
    pub graph: SocialGraph,
    pub pairs: Vec<(NodeId, String)>,
}

/// Everything a run measures against.
pub struct Deployment {
    pub exec: Exec,
    pub users: Vec<NodeId>,
    pub items: Vec<NodeId>,
    /// The benchmark's own copy of the engine the server was booted with.
    /// Direct-call phases and checks use it; it never sees an `/apply`.
    pub engine: ClusteredNetworkAwareSearch,
    pub server_config: ServerConfig,
    server: ServerHandle,
    /// The processors left to the load generator; the server's threads run
    /// on the others.
    pub client_cpus: affinity::Cpus,
    pub inputs: Inputs,
    pub pipeline: PipelineSite,
}

impl Deployment {
    /// Build everything from the seed. Spans around the calls into each
    /// layer go to `trace`; the caller times the whole call.
    pub fn setup(seed: u64, scale: Scale, exec: Exec, trace: &mut Trace) -> Deployment {
        let site = trace.call(ROOT, 0, "workload.generate_site", || {
            generate_site(&inputs::site_config(seed, scale.users))
        });
        // `ClusteredNetworkAwareSearch::build_with(..).with_exact_fallback()`
        // taken apart, so that each part can be timed from outside.
        let model = SiteModel::from_graph(&site.graph);
        let clustering = trace
            .call(ROOT, 0, "content.cluster", || NetworkBasedClustering.cluster(&model, THETA));
        let clustered = trace.call(ROOT, 0, "content.clustered_build", || {
            ClusteredIndex::build_with(&exec, &model, clustering)
        });
        let exact =
            trace.call(ROOT, 0, "content.exact_build", || ExactIndex::build_with(&exec, &model));
        let engine = ClusteredNetworkAwareSearch::from_parts(model, clustered).with_fallback(exact);

        let pipeline_site =
            generate_site(&inputs::pipeline_site_config(seed, scale.pipeline_users));
        let mut graph = pipeline_site.graph;
        derive_similarity_links(&mut graph, MATCH_THRESHOLD);
        ContentAnalyzer::default().analyze(&mut graph);
        let pipeline =
            PipelineSite { graph, pairs: inputs::pipeline_pairs(seed, &pipeline_site.users) };

        // The default server, except that it serves per request. With at
        // most `nproc` connections a batching window would measure the
        // window's timer, not the program.
        let server_config = ServerConfig { window: Duration::ZERO, ..ServerConfig::default() };
        let everywhere = affinity::allowed();
        let (client_cpus, server_cpus) = affinity::split(&everywhere);
        affinity::pin(&server_cpus);
        let server = socialscope_server::spawn(server_config.clone(), engine.clone(), exec)
            .expect("the server boots on an ephemeral port");
        affinity::pin(&everywhere);
        let inputs = Inputs::generate(seed, &site.users, engine.site());
        Deployment {
            exec,
            users: site.users,
            items: site.items,
            engine,
            server_config,
            server,
            client_cpus,
            inputs,
            pipeline,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// Set up `times` times and keep the last deployment: `(deployment, each
/// set-up's seconds)`. Only one deployment is alive at a time.
pub fn setup_repeatedly(
    times: usize,
    seed: u64,
    scale: Scale,
    exec: Exec,
    trace: &mut Trace,
) -> (Deployment, Vec<f64>) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(Deployment::setup(seed, scale, exec, trace));
        seconds.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), seconds)
}
