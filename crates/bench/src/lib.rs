//! Shared fixtures for the SocialScope benchmark harness: standard site
//! scales and helpers used by both the Criterion benches and the
//! `experiments` binary that regenerates the paper's tables and figures.

#![warn(rust_2018_idioms)]

use socialscope_discovery::analyzer::similarity::derive_similarity_links;
use socialscope_graph::{NodeId, SocialGraph};
use socialscope_workload::{generate_site, GeneratedSite, SiteConfig};

/// Standard site scales used across experiments.
pub fn scale_config(users: usize) -> SiteConfig {
    SiteConfig {
        users,
        items: users * 2,
        cities: 10,
        avg_friends: 8,
        tags_per_user: 8,
        visits_per_user: 10,
        ..SiteConfig::default()
    }
}

/// Generate a site at a given user scale (deterministic).
pub fn site_at_scale(users: usize) -> GeneratedSite {
    generate_site(&scale_config(users))
}

/// Generate a site and materialize `match` links so plan-based collaborative
/// filtering and the Figure 2 pattern can run on it.
pub fn site_with_matches(users: usize, threshold: f64) -> (SocialGraph, Vec<NodeId>) {
    let site = site_at_scale(users);
    let mut graph = site.graph;
    derive_similarity_links(&mut graph, threshold);
    (graph, site.users)
}

/// The query keywords used by the index / top-k experiments.
pub fn standard_keywords() -> Vec<String> {
    vec!["baseball".to_string(), "museum".to_string(), "family".to_string()]
}
