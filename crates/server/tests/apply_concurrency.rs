//! The two-phase apply over real sockets: while a long `/apply` stages, a
//! query is answered — from the pre-apply state — before the apply's own
//! response arrives. The interleaving is pinned by what the server itself
//! reports on `GET /stats`, not by sleeping: `applies` moves when the
//! apply is admitted, `apply_stage_us_total` when its stage ends, so a
//! query issued after the first and answered before the second ran beside
//! the stage.

mod common;

use common::{post, request};
use socialscope_content::cluster::NetworkBasedClustering;
use socialscope_discovery::ClusteredNetworkAwareSearch;
use socialscope_exec::Exec;
use socialscope_graph::NodeId;
use socialscope_server::wire::{ApplyRequest, QueryRequest, QueryResponse, StatsResponse};
use socialscope_server::{spawn, ServerConfig};
use socialscope_workload::{generate_events, generate_site, EventStreamConfig, SiteConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};

/// Users of the served site and events of the one apply: sized so the
/// stage runs for well over 100 ms in an optimized build (seconds in a
/// debug one) — two orders of magnitude above a request round trip.
const USERS: usize = 4_000;
const EVENTS: usize = 12_000;

fn stats(addr: SocketAddr) -> StatsResponse {
    let (status, body) = request(addr, "GET", "/stats");
    assert_eq!(status, 200, "{body}");
    StatsResponse::from_json(&body).expect("valid stats document")
}

fn ranking(engine: &ClusteredNetworkAwareSearch, seeker: NodeId, keywords: &[String]) -> Vec<f64> {
    engine.query(seeker, keywords, 5).result.ranked.into_iter().map(|(_, score)| score).collect()
}

#[test]
fn a_query_sent_mid_apply_is_answered_from_the_old_state_before_the_apply_returns() {
    let site = generate_site(&SiteConfig {
        users: USERS,
        items: USERS * 2,
        cities: 10,
        ..SiteConfig::default()
    });
    let exec = Exec::new(2).expect("two worker threads");
    let before =
        ClusteredNetworkAwareSearch::build_with(&exec, &site.graph, &NetworkBasedClustering, 0.3)
            .with_exact_fallback();
    let events = generate_events(
        before.site(),
        &EventStreamConfig { events: EVENTS, ..EventStreamConfig::default() },
    );
    let mut after = before.clone();
    after.try_apply_with(&exec, &events).expect("the batch applies");

    // A probe whose answer the batch changes, so "old state" means something.
    let keywords: Vec<String> = before.site().tags().take(3).map(str::to_string).collect();
    let seeker = site
        .users
        .iter()
        .copied()
        .find(|&u| ranking(&before, u, &keywords) != ranking(&after, u, &keywords))
        .expect("the batch changes some seeker's answer");
    let probe = QueryRequest::new(seeker, keywords.clone(), 5).to_json();
    let served = |body: &str| -> Vec<f64> {
        let response = QueryResponse::from_json(body).expect("valid response document");
        assert!(!response.degraded, "the probe must not be degraded");
        response.results.iter().map(|r| r.score).collect()
    };
    let positive =
        |scores: Vec<f64>| -> Vec<f64> { scores.into_iter().filter(|s| *s > 0.0).collect() };

    let server = spawn(ServerConfig::default(), before.clone(), exec).expect("server boots");
    let addr = server.addr();
    let apply_body = ApplyRequest::new(&events).to_json();
    let apply_returned = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let outcome = post(addr, "/apply", &apply_body);
            apply_returned.store(true, Ordering::SeqCst);
            outcome
        });
        // Wait for the server to admit the apply (its stage starts next).
        while stats(addr).applies == 0 {
            assert!(!apply_returned.load(Ordering::SeqCst), "the apply returned unadmitted");
            std::thread::yield_now();
        }
        let (status, body) = post(addr, "/query", &probe);
        let answered_first = !apply_returned.load(Ordering::SeqCst);
        let staging = stats(addr).apply_stage_us_total == 0;
        assert_eq!(status, 200, "{body}");
        assert!(staging, "the stage ended before the probe was answered: lengthen the batch");
        assert!(answered_first, "the query waited for the apply");
        assert_eq!(served(&body), positive(ranking(&before, seeker, &keywords)));

        let (status, body) = writer.join().expect("writer thread");
        assert_eq!(status, 200, "apply failed: {body}");
    });

    // Once the apply has returned, the same probe answers from the new state.
    let (status, body) = post(addr, "/query", &probe);
    assert_eq!(status, 200, "{body}");
    assert_eq!(served(&body), positive(ranking(&after, seeker, &keywords)));
    let stats = stats(addr);
    assert!(stats.apply_stage_us_total > 0 && stats.apply_commit_us_total > 0, "{stats:?}");
    assert_eq!(stats.apply_commit_us_max, stats.apply_commit_us_total, "one apply, one commit");
    assert!(
        stats.apply_commit_us_total < stats.apply_stage_us_total,
        "the exclusive half must be the short one: {stats:?}"
    );
}
