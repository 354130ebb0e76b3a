//! Engine-level fault-injection tests (compiled only with the
//! `failpoints` cargo feature): a fault anywhere inside an engine apply —
//! the site-model update, the index patch, or the fallback's lockstep
//! patch — must leave the *whole engine* (site model, index, fallback)
//! byte-identical to its pre-apply state, so no query can ever observe a
//! site/index tear; in the two-phase form every such fault surfaces from
//! `stage`, before anything a `commit` could be handed exists; and a batch
//! deadline expiring inside the content layer
//! must surface through the discoverer's batch entry points as the defined
//! degraded answer (an empty recommendation list), not as garbage.

#![cfg(feature = "failpoints")]

use socialscope_content::{faults, BatchOptions, BatchScratch, ContentError, TagEvent};
use socialscope_discovery::discoverer::InformationDiscoverer;
use socialscope_discovery::recommend::{ClusteredNetworkAwareSearch, NetworkAwareSearch};
use socialscope_exec::failpoints::{FailAction, FailScenario};
use socialscope_exec::Exec;
use socialscope_graph::{GraphBuilder, NodeId, SocialGraph};

/// Two friends tag different items; a stranger tags a third.
fn site() -> (SocialGraph, Vec<NodeId>, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let users: Vec<NodeId> = (0..4).map(|i| b.add_user(&format!("u{i}"))).collect();
    let items: Vec<NodeId> =
        (0..3).map(|i| b.add_item(&format!("i{i}"), &["destination"])).collect();
    b.befriend(users[0], users[1]);
    b.befriend(users[0], users[2]);
    b.tag(users[1], items[0], &["baseball"]);
    b.tag(users[2], items[0], &["baseball"]);
    b.tag(users[1], items[1], &["museum"]);
    b.tag(users[3], items[2], &["baseball", "museum"]);
    (b.build(), users, items)
}

#[test]
fn a_fault_anywhere_in_an_engine_apply_leaves_no_tear() {
    let (graph, users, items) = site();
    let exec = Exec::new(2).unwrap();
    let exact0 = NetworkAwareSearch::build(&graph);
    let clustered0 = ClusteredNetworkAwareSearch::build_default(&graph).with_exact_fallback();
    let events = vec![
        TagEvent::assign(users[3], items[0], "museum"),
        TagEvent::assign(users[0], items[2], "newtag"),
        TagEvent::retract(users[1], items[1], "museum"),
    ];
    let keywords = vec!["baseball".to_string(), "museum".to_string()];

    let scenario = FailScenario::setup();
    for &fp in faults::APPLY_SITES {
        scenario.arm(fp, FailAction::Fault { after: 0 });

        // Exact engine: only exact-path and site-model sites are on its
        // apply path; a fault at a clustered-only site passes through.
        let mut exact = exact0.clone();
        let before = format!("{exact:?}");
        let on_path = fp == faults::SITE_APPLY
            || fp == faults::EXACT_APPLY_STAGE
            || fp == faults::EXACT_APPLY_COMMIT;
        let outcome = exact.try_apply_with(&exec, &events);
        if on_path {
            outcome.unwrap_err();
            assert_eq!(format!("{exact:?}"), before, "fault at `{fp}` tore the exact engine");
        } else {
            outcome.unwrap();
        }

        // Clustered engine with a fallback: *every* registered apply site
        // is on its path (site model, fallback exact patch, clustered
        // index patch) — any fault must roll the whole trio back.
        let mut clustered = clustered0.clone();
        let before = format!("{clustered:?}");
        clustered.try_apply_with(&exec, &events).unwrap_err();
        assert_eq!(format!("{clustered:?}"), before, "fault at `{fp}` tore the clustered engine");

        // Rolled-back engines still answer exactly like the pristine one.
        for &u in &users {
            assert_eq!(clustered.query(u, &keywords, 3), clustered0.query(u, &keywords, 3));
        }

        // Disarmed, the same engine instances complete the batch and agree
        // with engines that applied it fault-free.
        scenario.disarm(fp);
        exact.try_apply_with(&exec, &events).unwrap();
        clustered.try_apply_with(&exec, &events).unwrap();
        let mut want_exact = exact0.clone();
        want_exact.try_apply_with(&exec, &events).unwrap();
        let mut want_clustered = clustered0.clone();
        want_clustered.try_apply_with(&exec, &events).unwrap();
        for &u in &users {
            assert_eq!(
                exact.query(u, &keywords, 3),
                want_exact.query(u, &keywords, 3),
                "retry past `{fp}` diverged (exact)"
            );
            assert_eq!(
                clustered.query(u, &keywords, 3),
                want_clustered.query(u, &keywords, 3),
                "retry past `{fp}` diverged (clustered)"
            );
        }
    }
}

/// The two-phase engine apply keeps every failpoint in `stage`, which only
/// borrows the engine: a fault at any registered site comes back from
/// `stage` as the typed error with no staged value — `commit` cannot be
/// reached — and the live engine is byte-identical, build stamps included,
/// so a gather cache warmed before the faulted stage is still a valid hit.
#[test]
fn every_fault_surfaces_from_the_engine_stage_and_commit_is_never_reached() {
    let scenario = FailScenario::setup();
    let (graph, users, items) = site();
    let exec = Exec::new(2).unwrap();
    let engine = ClusteredNetworkAwareSearch::build_default(&graph).with_exact_fallback();
    let events = vec![
        TagEvent::assign(users[3], items[0], "museum"),
        TagEvent::assign(users[0], items[2], "newtag"),
        TagEvent::retract(users[1], items[1], "museum"),
    ];
    let keywords = vec!["baseball".to_string(), "museum".to_string()];
    let mut scratch = BatchScratch::default();
    let warm =
        engine.query_batch_opts(&users, &keywords, 3, BatchOptions::new().scratch(&mut scratch));
    let before = format!("{engine:?}");

    for &fp in faults::APPLY_SITES {
        scenario.arm(fp, FailAction::Fault { after: 0 });
        assert_eq!(
            engine.stage(&exec, &events).unwrap_err(),
            ContentError::FaultInjected { site: fp.to_string() },
            "fault at `{fp}` surfaced wrong"
        );
        assert_eq!(format!("{engine:?}"), before, "a faulted stage at `{fp}` wrote the engine");
        let served = engine.query_batch_opts(
            &users,
            &keywords,
            3,
            BatchOptions::new().scratch(&mut scratch),
        );
        assert_eq!(served, warm, "warm scratch diverged after a faulted stage at `{fp}`");
        scenario.disarm(fp);
    }
}

#[test]
fn a_deadline_expiry_reaches_the_discoverer_as_empty_recommendations() {
    let (graph, users, _) = site();
    let discoverer = InformationDiscoverer { limit: 3, ..InformationDiscoverer::default() };
    let exact = NetworkAwareSearch::build(&graph);
    let clustered = ClusteredNetworkAwareSearch::build_default(&graph);
    let text = "Baseball museum";
    let hour = std::time::Duration::from_secs(3600);
    let exec = Exec::sequential();
    // Deadline checks are chunk-granular (one cooperative check per
    // 32-member run), so the batch must span more than one chunk for a
    // mid-batch expiry to leave a *strict* subset.
    let users: Vec<NodeId> = users.iter().cycle().take(40).copied().collect();
    let unbounded = discoverer.discover_opts(&exact, &users, text, BatchOptions::new().exec(&exec));

    let scenario = FailScenario::setup();
    // Expiry forced from the very first cooperative check: every seeker
    // gets the defined degraded answer — an empty recommendation list.
    scenario.arm(faults::DEADLINE, FailAction::Fault { after: 0 });
    let served = discoverer.discover_opts(
        &exact,
        &users,
        text,
        BatchOptions::new().exec(&exec).deadline(hour),
    );
    assert_eq!(served.len(), users.len());
    assert!(served.iter().all(Vec::is_empty), "starved seekers must answer empty");
    let served = discoverer.discover_opts(
        &clustered,
        &users,
        text,
        BatchOptions::new().exec(&exec).deadline(hour),
    );
    assert!(served.iter().all(Vec::is_empty), "starved seekers must answer empty (clustered)");
    // Expiry forced after the first check: a strict subset survives, and
    // every survivor is byte-identical to its unbounded answer.
    scenario.arm(faults::DEADLINE, FailAction::Fault { after: 1 });
    let served = discoverer.discover_opts(
        &exact,
        &users,
        text,
        BatchOptions::new().exec(&exec).deadline(hour),
    );
    let survivors = served.iter().filter(|r| !r.is_empty()).count();
    assert!(survivors < users.len());
    for (got, want) in served.iter().zip(&unbounded) {
        assert!(got.is_empty() || got == want);
    }
    scenario.disarm(faults::DEADLINE);
    // Disarmed, the huge budget is invisible.
    let served = discoverer.discover_opts(
        &exact,
        &users,
        text,
        BatchOptions::new().exec(&exec).deadline(hour),
    );
    assert_eq!(served, unbounded);
}
