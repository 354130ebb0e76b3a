//! Everything the benchmark generates from `--seed`. The programme under
//! test receives only these generated requests; the same seed gives the
//! same bytes, which [`Inputs::hash`] lets two runs prove.

use crate::loadgen::http_request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialscope_content::wire::{ApplyRequest, QueryRequest};
use socialscope_content::SiteModel;
use socialscope_graph::NodeId;
use socialscope_workload::travel::CATEGORICAL_TERMS;
use socialscope_workload::{
    generate_events, keywords_of, EventStreamConfig, QueryLogConfig, QueryLogGenerator, SiteConfig,
    ZipfSampler,
};

/// Results asked for per query, on every path.
pub const K: usize = 10;
/// Keyword sets in the pool.
pub const KEYWORD_SETS: usize = 64;
/// Seekers served per engine batch: what the batcher would hand the engine
/// at high fan-in, which `nproc` connections cannot produce over HTTP.
pub const BATCH_SEEKERS: usize = 256;
/// Events per `/apply` batch.
pub const EVENTS_PER_WRITE: usize = 64;
/// Pre-generated query requests; phases cycle through them.
const QUERY_REQUESTS: usize = 16_384;
/// Pre-generated `/apply` batches: more than any run sends.
const WRITES: usize = 64;
/// Seeded (user, query) pairs for the paper pipeline: few enough that even
/// the shortest slice of a run gets through all of them more than once.
const PIPELINE_PAIRS: usize = 8;

/// Sizes of the two generated sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Users of the served site: 10^4 has a ~25 MB compressed index,
    /// larger than this box's 4 MiB L2.
    pub users: usize,
    /// Users of the logical-graph site the paper pipeline runs on.
    pub pipeline_users: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { users: 10_000, pipeline_users: 150 };
    /// Small enough that the whole benchmark passes in seconds; its numbers
    /// compare with nothing.
    pub const SMOKE: Scale = Scale { users: 500, pipeline_users: 60 };
}

/// An independent seed for one stream of generated values.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn site_config(seed: u64, users: usize) -> SiteConfig {
    SiteConfig { seed, ..SiteConfig::at_scale(users) }
}

/// The logical-graph site: the default (uniform-tag) shape the paper-facing
/// examples and tests use, at the given size.
pub fn pipeline_site_config(seed: u64, users: usize) -> SiteConfig {
    SiteConfig { seed: sub_seed(seed, 1), users, items: users * 2, ..SiteConfig::default() }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub seeker: NodeId,
    /// Index into [`Inputs::keyword_sets`].
    pub set: usize,
}

/// The generated load for the served site.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub keyword_sets: Vec<Vec<String>>,
    pub queries: Vec<Query>,
    /// `queries[i]` as the bytes of a `POST /query`.
    pub query_requests: Vec<Vec<u8>>,
    /// For keyword set `s`, the seekers of its engine batch.
    pub batch_seekers: Vec<Vec<NodeId>>,
    /// Event batches, to be applied in order.
    pub writes: Vec<Vec<socialscope_content::TagEvent>>,
    /// `writes[i]` as the bytes of a `POST /apply`.
    pub write_requests: Vec<Vec<u8>>,
}

impl Inputs {
    /// Draw the load for a site: keyword sets from the query-log generator
    /// with the paper's Table 1 mixture, seekers Zipf(1.0) over the users,
    /// event batches with 30% retractions.
    ///
    /// Only keyword sets that name a tag the site knows are kept (the rule
    /// E14 uses). The generated site's tags are the twenty activity tags,
    /// so of a plain Table 1 draw 97% of the queries end at keyword
    /// resolution and the engine does no work at all. Every kept set is a
    /// categorical query: only categorical terms are tags.
    ///
    /// Each such tag gets the same number of sets. Tag popularity is Zipf,
    /// so how many of 64 free draws land on the head tags would otherwise
    /// decide a run's cost: `batch_qps` spread 12% over ten seeds that way,
    /// against 4% over ten runs of one seed.
    pub fn generate(seed: u64, users: &[NodeId], site: &SiteModel) -> Inputs {
        let live: Vec<&str> = site.tags().filter(|tag| CATEGORICAL_TERMS.contains(tag)).collect();
        assert!(!live.is_empty(), "the site knows a tag a query can name");
        let per_tag = KEYWORD_SETS.div_ceil(live.len());
        let mut taken = vec![0usize; live.len()];
        let mut log = QueryLogGenerator::new(QueryLogConfig {
            seed: sub_seed(seed, 2),
            ..QueryLogConfig::default()
        });
        let keyword_sets: Vec<Vec<String>> = std::iter::repeat_with(|| log.next_query())
            .map(|text| keywords_of(&text))
            .filter(|set| {
                let tag = live.iter().position(|tag| set.iter().any(|keyword| keyword == tag));
                tag.is_some_and(|tag| {
                    taken[tag] += 1;
                    taken[tag] <= per_tag
                })
            })
            .take(KEYWORD_SETS)
            .collect();

        let seekers = ZipfSampler::new(users.len(), 1.0);
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
        let queries: Vec<Query> = (0..QUERY_REQUESTS)
            .map(|_| Query {
                seeker: users[seekers.sample(&mut rng)],
                set: rng.gen_range(0..keyword_sets.len()),
            })
            .collect();
        let query_requests = queries
            .iter()
            .map(|query| {
                let keywords = keyword_sets[query.set].clone();
                let body = QueryRequest::new(query.seeker, keywords, K).to_json();
                http_request("POST", "/query", &body)
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
        let batch_seekers = (0..keyword_sets.len())
            .map(|_| (0..BATCH_SEEKERS).map(|_| users[seekers.sample(&mut rng)]).collect())
            .collect();

        // One stream cut into batches: retractions are drawn without
        // replacement from the assignments the site holds now, so every
        // batch stays effective when the batches are applied in order.
        let events = generate_events(
            site,
            &EventStreamConfig {
                events: WRITES * EVENTS_PER_WRITE,
                retract_fraction: 0.3,
                seed: sub_seed(seed, 5),
                ..EventStreamConfig::default()
            },
        );
        let writes: Vec<Vec<_>> = events.chunks(EVENTS_PER_WRITE).map(<[_]>::to_vec).collect();
        let write_requests = writes
            .iter()
            .map(|batch| http_request("POST", "/apply", &ApplyRequest::new(batch).to_json()))
            .collect();

        Inputs { keyword_sets, queries, query_requests, batch_seekers, writes, write_requests }
    }

    /// FNV-1a over every generated byte the programme will receive.
    pub fn hash(&self) -> u64 {
        let mut hash = Fnv::default();
        for request in self.query_requests.iter().chain(&self.write_requests) {
            hash.write(request);
        }
        for (set, seekers) in self.keyword_sets.iter().zip(&self.batch_seekers) {
            for keyword in set {
                hash.write(keyword.as_bytes());
            }
            for seeker in seekers {
                hash.write(&seeker.0.to_le_bytes());
            }
        }
        hash.0
    }
}

/// The seeded (user, query text) pairs the paper pipeline serves.
pub fn pipeline_pairs(seed: u64, users: &[NodeId]) -> Vec<(NodeId, String)> {
    let mut log = QueryLogGenerator::new(QueryLogConfig {
        queries: PIPELINE_PAIRS,
        seed: sub_seed(seed, 6),
        ..QueryLogConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 7));
    log.generate().into_iter().map(|text| (users[rng.gen_range(0..users.len())], text)).collect()
}

pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_workload::generate_site;

    fn inputs_for(seed: u64) -> Inputs {
        let site = generate_site(&site_config(seed, 60));
        Inputs::generate(seed, &site.users, &SiteModel::from_graph(&site.graph))
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let a = inputs_for(7);
        assert_eq!(a, inputs_for(7));
        assert_eq!(a.hash(), inputs_for(7).hash());
        assert_ne!(a.hash(), inputs_for(8).hash());
    }

    #[test]
    fn the_load_has_the_stated_shape() {
        let inputs = inputs_for(7);
        assert_eq!(inputs.keyword_sets.len(), KEYWORD_SETS);
        assert_eq!(inputs.query_requests.len(), inputs.queries.len());
        assert!(inputs.batch_seekers.iter().all(|seekers| seekers.len() == BATCH_SEEKERS));
        assert_eq!(inputs.writes.len(), WRITES);
        assert!(inputs.writes.iter().all(|batch| batch.len() == EVENTS_PER_WRITE));
        let retracts = inputs.writes.iter().flatten().filter(|event| !event.is_assign()).count();
        let share = retracts as f64 / (WRITES * EVENTS_PER_WRITE) as f64;
        assert!((0.2..0.4).contains(&share), "about 30% retractions, got {share}");
        let head = String::from_utf8_lossy(&inputs.query_requests[0]).into_owned();
        assert!(head.starts_with("POST /query HTTP/1.1\r\n"), "{head}");
        // Zipf(1.0): the most popular seeker is drawn far more often than
        // one in sixty.
        let top = inputs.queries.iter().filter(|q| q.seeker == inputs.queries[0].seeker).count();
        assert!(top > 0);
    }

    #[test]
    fn pipeline_pairs_follow_the_seed() {
        let users: Vec<NodeId> = (1..=20).map(NodeId).collect();
        assert_eq!(pipeline_pairs(3, &users), pipeline_pairs(3, &users));
        assert_ne!(pipeline_pairs(3, &users), pipeline_pairs(4, &users));
        assert_eq!(pipeline_pairs(3, &users).len(), PIPELINE_PAIRS);
    }
}
