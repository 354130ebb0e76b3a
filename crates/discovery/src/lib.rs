//! # socialscope-discovery
//!
//! The Information Discovery layer of SocialScope (paper §3 and §5).
//!
//! The layer has two components:
//!
//! * the **Content Analyzer** ([`analyzer`]) derives new nodes and links
//!   from the raw social content graph in an offline fashion — topics via a
//!   lightweight LDA / co-occurrence model, association rules over tagging
//!   transactions, and user-similarity (`match`) links;
//! * the **Information Discoverer** ([`discoverer`]) parses a user query
//!   ([`query::UserQuery`]), computes semantic relevance
//!   ([`relevance`]) and social relevance ([`social`]), evaluates the
//!   corresponding algebra plan over the social content graph and returns a
//!   **Meaningful Social Graph** ([`msg::MeaningfulSocialGraph`]) — the
//!   sub-graph that is semantically and socially relevant to the user and
//!   query, with ranked items.
//!
//! The [`recommend`] module implements the recommendation strategies the
//! paper discusses: the collaborative filtering of Example 5 expressed as an
//! algebra plan, a direct item-based baseline, and the expert-fallback
//! strategy motivated by Example 2 (Selma's family trip when none of her
//! friends have children).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyzer;
pub mod discoverer;
pub mod error;
pub mod msg;
pub mod query;
pub mod recommend;
pub mod relevance;
pub mod social;

pub use analyzer::{AnalysisReport, ContentAnalyzer};
pub use discoverer::InformationDiscoverer;
pub use error::DiscoveryError;
pub use msg::MeaningfulSocialGraph;
pub use query::UserQuery;
pub use recommend::{
    collaborative_filtering_plan, expert_recommendations, item_based_recommendations,
    recommend_for_user, BatchRecommender, ClusteredNetworkAwareSearch, NetworkAwareSearch,
    Recommendation, StagedClusteredSearchApply, StagedSearchApply,
};
pub use relevance::{combined_score, RelevanceWeights, SemanticScorer};
pub use social::SocialRelevance;

/// Convenience result alias for discovery operations.
pub type Result<T> = std::result::Result<T, DiscoveryError>;
