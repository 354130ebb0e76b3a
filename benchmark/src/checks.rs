//! Correctness before timing. Each check compares the program's answers
//! with an independent way of getting them; the run stops on the first
//! mismatch, before any number is printed.

use crate::deploy::Deployment;
use crate::inputs::K;
use crate::loadgen::Conn;
use crate::serving::{direct_answer, query_of};
use socialscope_content::wire::QueryResponse;
use socialscope_content::{BatchOptions, BatchScratchPool};
use socialscope_discovery::ClusteredNetworkAwareSearch;
use socialscope_graph::NodeId;

/// HTTP answers compared with the engine per check.
const HTTP_SAMPLES: usize = 200;
/// Seekers whose top-k is compared with the brute-force oracle.
const ORACLE_SEEKERS: usize = 64;

/// `HTTP_SAMPLES` answers over HTTP, spread over the request pool, equal
/// what `engine` answers directly: items, scores, order and flags.
pub fn http_matches(dep: &Deployment, engine: &ClusteredNetworkAwareSearch) -> Result<(), String> {
    let mut conn = Conn::connect(dep.addr()).map_err(|e| format!("check connection: {e}"))?;
    let stride = dep.inputs.query_requests.len() / HTTP_SAMPLES;
    for i in (0..HTTP_SAMPLES).map(|sample| sample * stride) {
        let (status, body) = conn
            .roundtrip(&dep.inputs.query_requests[i])
            .map_err(|e| format!("check request {i}: {e}"))?;
        let text = String::from_utf8_lossy(body).into_owned();
        if status != 200 {
            return Err(format!("check request {i} answered {status}: {text}"));
        }
        let got = QueryResponse::from_json(&text).map_err(|e| format!("request {i}: {e}"))?;
        let (seeker, keywords) = query_of(dep, i);
        let want = direct_answer(dep, engine, seeker, keywords);
        if got != want {
            return Err(format!(
                "HTTP answer {i} differs from the engine's\n got: {got:?}\nwant: {want:?}"
            ));
        }
    }
    Ok(())
}

/// Every generated batch answers as a loop of single `query` calls does,
/// and the top-k of `ORACLE_SEEKERS` seekers matches a brute-force ranking
/// of every item by `SiteModel::query_score`.
pub fn batches_match(dep: &Deployment) -> Result<(), String> {
    let engine = &dep.engine;
    let mut pool = BatchScratchPool::default();
    let sets = dep.inputs.keyword_sets.iter().zip(&dep.inputs.batch_seekers);
    let mut oracle_checked = 0;
    for (index, (set, seekers)) in sets.enumerate() {
        let opts = BatchOptions::new().exec(&dep.exec).scratch_pool(&mut pool);
        let batch = engine.query_batch_opts(seekers, set, K, opts);
        for (&seeker, report) in seekers.iter().zip(&batch) {
            if *report != engine.query(seeker, set, K) {
                return Err(format!("batch {index} differs from `query` for seeker {seeker:?}"));
            }
        }
        // One seeker of every set, until enough are checked: the oracle
        // scores every item of the site, so it is kept to a sample.
        if oracle_checked < ORACLE_SEEKERS {
            let at = index % seekers.len();
            oracle_matches(dep, seekers[at], set, &batch[at].result.ranked)?;
            oracle_checked += 1;
        }
    }
    Ok(())
}

/// The engine's positive-score top-k against all items ranked by brute
/// force: the same scores in the same order (ties may name other items),
/// and every returned item carries its true score.
fn oracle_matches(
    dep: &Deployment,
    seeker: NodeId,
    keywords: &[String],
    ranked: &[(NodeId, f64)],
) -> Result<(), String> {
    let site = dep.engine.site();
    let mut truth: Vec<f64> = dep
        .items
        .iter()
        .map(|&item| site.query_score(item, seeker, keywords))
        .filter(|score| *score > 0.0)
        .collect();
    truth.sort_by(|a, b| b.total_cmp(a));
    truth.truncate(K);
    let got: Vec<(NodeId, f64)> = ranked.iter().copied().filter(|(_, s)| *s > 0.0).collect();
    let scores: Vec<f64> = got.iter().map(|(_, score)| *score).collect();
    if scores != truth {
        return Err(format!(
            "top-{K} of seeker {seeker:?} for {keywords:?}: engine {scores:?}, oracle {truth:?}"
        ));
    }
    match got.iter().find(|(item, score)| site.query_score(*item, seeker, keywords) != *score) {
        Some((item, score)) => Err(format!("item {item:?} was returned with wrong score {score}")),
        None => Ok(()),
    }
}

/// After the run's applies: the server answers as an in-process clone of
/// the engine that had the same `applied` event batches applied. The clone
/// takes them as one batch: an apply leaves the state a rebuild from the
/// resulting site would (delta = rebuild), however the events were cut.
pub fn http_matches_after_applies(dep: &Deployment, applied: usize) -> Result<(), String> {
    let mut shadow = dep.engine.clone();
    let events = dep.inputs.writes[..applied].concat();
    shadow.try_apply_with(&dep.exec, &events).map_err(|e| format!("shadow apply: {e}"))?;
    http_matches(dep, &shadow)
}
