//! The HTTP phases: paced queries (with or without a writer beside them),
//! saturation, back-to-back applies; and the single-threaded replay of
//! traced requests through the server's own public calls.

use crate::deploy::Deployment;
use crate::inputs::K;
use crate::loadgen::{closed_loop, http_request, Conn, LoadResult, OpenLoop};
use crate::trace::{Trace, ROOT};
use socialscope_content::wire::{QueryRequest, QueryResponse, ScoredItem, StatsResponse};
use socialscope_content::{BatchOptions, BatchScratchPool, ClusteredQueryReport, WIRE_VERSION};
use socialscope_discovery::ClusteredNetworkAwareSearch;
use socialscope_graph::NodeId;
use socialscope_server::http::{write_response, RequestReader};
use std::io::Read;
use std::time::{Duration, Instant};

/// The paced phases' rate, requests per second over all reader connections.
pub const PACED_RATE: f64 = 2_000.0;
/// Two `/apply` per second beside the paced readers: a tenth of a second
/// of write lock in every half second puts `query_p98_us` well inside the
/// stall and leaves `query_p50_us` outside it.
pub const WRITE_PERIOD: Duration = Duration::from_millis(500);
/// A rung of the rate ladder is in the limit while its p99 stays below this.
pub const LATENCY_LIMIT_US: f64 = 5_000.0;
/// Every `REPLAY_STRIDE`-th traced request is replayed.
const REPLAY_STRIDE: usize = 10;

/// Where the phases of one run are in the pre-generated load, so that no
/// two phases send the same stretch of it and writes stay in order.
#[derive(Debug, Default)]
pub struct Cursor {
    pub queries: usize,
    pub writes: usize,
}

/// Reader connections of the paced phases: one core is left to the server.
pub fn reader_conns() -> usize {
    nproc().saturating_sub(1).max(1)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub struct Paced {
    /// `latencies_us` ascending.
    pub load: LoadResult,
    /// `GET /stats` deltas across the phase.
    pub batches_per_query: f64,
    pub degraded_share: f64,
}

fn scrape(dep: &Deployment) -> StatsResponse {
    let mut conn = Conn::connect(dep.addr()).expect("the server accepts a stats connection");
    let (status, body) =
        conn.roundtrip(&http_request("GET", "/stats", "")).expect("GET /stats answers");
    assert_eq!(status, 200, "GET /stats");
    StatsResponse::from_json(std::str::from_utf8(body).expect("stats are UTF-8"))
        .expect("stats parse")
}

/// Open loop at `rate` for `seconds`; with `writer`, one more connection
/// posts an event batch per [`WRITE_PERIOD`].
pub fn paced(
    dep: &Deployment,
    cursor: &mut Cursor,
    rate: f64,
    seconds: f64,
    writer: bool,
    trace: &Trace,
) -> Paced {
    let before = scrape(dep);
    let writes: &[Vec<u8>] = if writer { &dep.inputs.write_requests[cursor.writes..] } else { &[] };
    let mut load = OpenLoop {
        addr: dep.addr(),
        requests: &dep.inputs.query_requests,
        first: cursor.queries,
        rate,
        conns: reader_conns(),
        duration: Duration::from_secs_f64(seconds),
        writes,
        write_period: WRITE_PERIOD,
        trace: trace.enabled(),
        epoch: trace.epoch(),
        cpus: &dep.client_cpus,
    }
    .run();
    let after = scrape(dep);
    cursor.queries += load.attempted;
    cursor.writes += load.write_ms.len() + load.writes_failed;
    load.latencies_us.sort_by(f64::total_cmp);
    let queries = (after.queries - before.queries).max(1) as f64;
    Paced {
        batches_per_query: (after.batches - before.batches) as f64 / queries,
        degraded_share: (after.degraded - before.degraded) as f64 / queries,
        load,
    }
}

/// Closed loop: `nproc` clients back to back for `seconds`.
pub fn saturation(dep: &Deployment, cursor: &mut Cursor, seconds: f64) -> LoadResult {
    let load = closed_loop(
        dep.addr(),
        &dep.inputs.query_requests,
        cursor.queries,
        nproc(),
        Duration::from_secs_f64(seconds),
        &dep.client_cpus,
    );
    cursor.queries += load.attempted;
    load
}

/// Event batches posted back to back on one connection with no reader
/// beside them: three, then more while `seconds` last, six at most (on a
/// small site an apply takes milliseconds and would use up the generated
/// batches). Returns `(round trips in ms, failed)`.
pub fn applies(dep: &Deployment, cursor: &mut Cursor, seconds: f64) -> (Vec<f64>, usize) {
    let mut conn = Conn::connect(dep.addr()).expect("the server accepts a writer connection");
    let start = Instant::now();
    let (mut round_trips_ms, mut failed) = (Vec::new(), 0);
    loop {
        let sent = round_trips_ms.len() + failed;
        if sent >= 6 || (sent >= 3 && start.elapsed().as_secs_f64() >= seconds) {
            break;
        }
        let Some(write) = dep.inputs.write_requests.get(cursor.writes) else { break };
        cursor.writes += 1;
        let sent = Instant::now();
        match conn.roundtrip(write) {
            Ok((200, _)) => round_trips_ms.push(sent.elapsed().as_nanos() as f64 / 1e6),
            _ => failed += 1,
        }
    }
    (round_trips_ms, failed)
}

/// The wire response `serve_batch` builds from an engine report.
pub fn response_of(seeker: NodeId, report: ClusteredQueryReport) -> QueryResponse {
    QueryResponse {
        version: WIRE_VERSION,
        seeker,
        degraded: report.deadline_expired || report.result.deadline_expired,
        results: report
            .result
            .ranked
            .into_iter()
            .filter(|(_, score)| *score > 0.0)
            .map(|(item, score)| ScoredItem { item, score })
            .collect(),
        unclustered: report.unclustered,
        batch_size: 1,
    }
}

/// Hands a [`RequestReader`] one request per `read`, the way a keep-alive
/// connection at this rate delivers them.
struct OneRequestPerRead<'a> {
    requests: std::vec::IntoIter<&'a [u8]>,
}

impl Read for OneRequestPerRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(request) = self.requests.next() else { return Ok(0) };
        buf[..request.len()].copy_from_slice(request);
        Ok(request.len())
    }
}

/// Replay every [`REPLAY_STRIDE`]-th traced request, single-threaded,
/// through the server's public calls in the order `route` makes them. Each
/// call is a child span of a `replay` span that shares the request's id.
pub fn replay(dep: &Deployment, trace: &mut Trace) {
    let ids: Vec<u64> = trace
        .spans()
        .iter()
        .filter(|span| span.name == "request")
        .map(|span| span.request)
        .step_by(REPLAY_STRIDE)
        .collect();
    let pool_len = dep.inputs.query_requests.len();
    let raw: Vec<&[u8]> = ids
        .iter()
        .map(|&id| dep.inputs.query_requests[id as usize % pool_len].as_slice())
        .collect();
    let config = &dep.server_config;
    let mut reader = RequestReader::new(OneRequestPerRead { requests: raw.into_iter() });
    let mut scratch = BatchScratchPool::default();
    let mut wire = Vec::with_capacity(4096);
    for id in ids {
        trace.span(ROOT, id, "replay", |trace, parent| {
            let request = trace
                .call(parent, id, "server.read_request", || reader.read_request(&config.limits))
                .expect("a generated request parses");
            let text = std::str::from_utf8(&request.body).expect("generated bodies are UTF-8");
            let query = trace
                .call(parent, id, "content.wire_decode", || QueryRequest::from_json(text))
                .expect("a generated query decodes");
            let mut reports = trace.call(parent, id, "discovery.engine_query", || {
                dep.engine.query_batch_opts(
                    &[query.seeker],
                    &query.keywords,
                    query.k.min(config.k_max),
                    BatchOptions::new()
                        .exec(&dep.exec)
                        .scratch_pool(&mut scratch)
                        .deadline(config.slo),
                )
            });
            let response = response_of(query.seeker, reports.remove(0));
            let json = trace.call(parent, id, "content.wire_encode", || response.to_json());
            wire.clear();
            trace
                .call(parent, id, "server.write_response", || {
                    write_response(&mut wire, 200, json.as_bytes(), false)
                })
                .expect("writing to memory succeeds");
            std::hint::black_box(&wire);
        });
    }
}

/// The query the `i`-th pre-generated request carries, for checks.
pub fn query_of(dep: &Deployment, i: usize) -> (NodeId, &[String]) {
    let query = &dep.inputs.queries[i % dep.inputs.queries.len()];
    (query.seeker, &dep.inputs.keyword_sets[query.set])
}

/// What the engine answers to one query, as the wire would carry it.
pub fn direct_answer(
    dep: &Deployment,
    engine: &ClusteredNetworkAwareSearch,
    seeker: NodeId,
    keywords: &[String],
) -> QueryResponse {
    let mut reports =
        engine.query_batch_opts(&[seeker], keywords, K, BatchOptions::new().exec(&dep.exec));
    response_of(seeker, reports.remove(0))
}
