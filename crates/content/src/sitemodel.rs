//! The site primitives of §6.2: `items(u)`, `network(u)`, `taggers(i, k)`
//! and the network-aware scoring model built on them.
//!
//! For a del.icio.us-style site where users connect with other users and tag
//! items, the paper defines the score of an item `i` for user `u` and
//! keyword `k` as `score_k(i, u) = f(network(u) ∩ taggers(i, k))` with `f`
//! a monotone function (count, for exposition), and the overall score of `i`
//! for query `Q_u = k1,…,kn` as a monotone aggregate `g` of the per-keyword
//! scores (sum, for exposition). [`SiteModel`] materializes those primitives
//! from a social content graph once and serves them to the inverted indexes,
//! the clustering strategies and the top-k processor.

use crate::events::TagEvent;
use crate::index::{check_stamp, next_build_stamp};
use crate::tags::normalize;
use serde::{Deserialize, Serialize};
use socialscope_graph::{FxHashMap, HasAttrs, NodeId, SocialGraph};
use std::collections::{BTreeMap, BTreeSet};

/// Materialized view of a social content site used by network-aware search.
///
/// The per-user / per-item id sets of the scoring hot path (`network(u)`,
/// `taggers(i, k)`, `items(u)`) are frozen into sorted vectors at build
/// time: `score_k` then intersects two contiguous sorted runs instead of
/// walking two B-trees — the dominant cost of clustered query processing
/// and of the exhaustive baseline.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteModel {
    users: BTreeSet<NodeId>,
    items: BTreeSet<NodeId>,
    tags: BTreeSet<String>,
    /// `items(u)`: items tagged by `u`, in ascending id order.
    items_of: FxHashMap<NodeId, Vec<NodeId>>,
    /// `network(u)`: users connected to `u` (undirected over connect
    /// links), in ascending id order.
    network_of: FxHashMap<NodeId, Vec<NodeId>>,
    /// `taggers(i, k)`: users who tagged item `i` with tag `k` (ascending),
    /// keyed item-first so tag lookups can borrow the probe string.
    taggers_of: FxHashMap<NodeId, FxHashMap<String, Vec<NodeId>>>,
    /// `tags(u)`: tags used by `u` (for behavior statistics).
    tags_of: FxHashMap<NodeId, BTreeSet<String>>,
    /// Items carrying each tag (user-independent), for candidate generation.
    items_with_tag: BTreeMap<String, BTreeSet<NodeId>>,
    /// Content identity (see [`Self::build_stamp`]). Process-local, so never
    /// persisted.
    #[serde(skip)]
    stamp: u64,
}

/// Freeze a dedup set map into sorted-vector form.
fn freeze<K: std::hash::Hash + Eq>(
    sets: FxHashMap<K, BTreeSet<NodeId>>,
) -> FxHashMap<K, Vec<NodeId>> {
    sets.into_iter().map(|(k, set)| (k, set.into_iter().collect())).collect()
}

impl SiteModel {
    /// Build the model from a social content graph: users and items come
    /// from node types, `network(u)` from `connect` links, `items(u)` and
    /// `taggers(i, k)` from `tag` activity links.
    pub fn from_graph(graph: &SocialGraph) -> Self {
        let mut model = SiteModel::default();
        let mut items_of: FxHashMap<NodeId, BTreeSet<NodeId>> = FxHashMap::default();
        let mut network_of: FxHashMap<NodeId, BTreeSet<NodeId>> = FxHashMap::default();
        let mut taggers_of: FxHashMap<NodeId, FxHashMap<String, BTreeSet<NodeId>>> =
            FxHashMap::default();
        for node in graph.nodes() {
            if node.has_type("user") {
                model.users.insert(node.id);
            }
            if node.has_type("item") {
                model.items.insert(node.id);
            }
        }
        for link in graph.links() {
            if link.type_values().iter().any(|t| socialscope_graph::types::is_connection_type(t))
                && model.users.contains(&link.src)
                && model.users.contains(&link.tgt)
            {
                network_of.entry(link.src).or_default().insert(link.tgt);
                network_of.entry(link.tgt).or_default().insert(link.src);
            }
            if link.has_type("tag") {
                let user = link.src;
                let item = link.tgt;
                if !model.users.contains(&user) || !model.items.contains(&item) {
                    continue;
                }
                items_of.entry(user).or_default().insert(item);
                let tags = link.attrs.get("tags").map(|v| v.string_tokens()).unwrap_or_default();
                for tag in tags {
                    model.tags.insert(tag.clone());
                    taggers_of
                        .entry(item)
                        .or_default()
                        .entry(tag.clone())
                        .or_default()
                        .insert(user);
                    model.tags_of.entry(user).or_default().insert(tag.clone());
                    model.items_with_tag.entry(tag).or_default().insert(item);
                }
            }
        }
        model.items_of = freeze(items_of);
        model.network_of = freeze(network_of);
        model.taggers_of =
            taggers_of.into_iter().map(|(item, by_tag)| (item, freeze(by_tag))).collect();
        model.stamp = next_build_stamp();
        model
    }

    /// The model's content identity: a fresh process-unique stamp per
    /// [`Self::from_graph`] and per *effective* [`Self::try_apply`] (0 for a
    /// default-constructed model). Two models carrying the same stamp are
    /// clones holding the same content, which is what lets an engine's
    /// `commit` refuse a staged successor of a site that has since moved on.
    pub fn build_stamp(&self) -> u64 {
        self.stamp
    }

    /// [`crate::ContentError::StaleStage`] unless this model still carries
    /// `staged_base`, the stamp a staged successor was cloned at.
    pub fn check_current(&self, staged_base: u64) -> crate::Result<()> {
        check_stamp(staged_base, self.stamp)
    }

    /// All users, in id order.
    pub fn users(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.users.iter().copied()
    }

    /// All items, in id order.
    pub fn items(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.items.iter().copied()
    }

    /// All distinct tags, in lexical order.
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        self.tags.iter().map(String::as_str)
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }
    /// Number of items.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }
    /// Number of distinct tags.
    pub fn tag_count(&self) -> usize {
        self.tags.len()
    }

    /// `items(u)`: the items tagged by a user, ascending.
    pub fn items_of(&self, user: NodeId) -> &[NodeId] {
        self.items_of.get(&user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `network(u)`: the users connected to a user, ascending.
    pub fn network_of(&self, user: NodeId) -> &[NodeId] {
        self.network_of.get(&user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `taggers(i, k)`: the users who tagged item `i` with tag `k`,
    /// ascending. Allocation-free when the probe tag is already lowercase.
    pub fn taggers_of(&self, item: NodeId, tag: &str) -> &[NodeId] {
        self.taggers_of
            .get(&item)
            .and_then(|by_tag| by_tag.get(normalize(tag).as_ref()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterate every `(item, tag, taggers)` group once — the raw material
    /// the inverted-index builds accumulate over, without the
    /// items × tags cross-product probing `taggers_of` per pair costs.
    pub fn tag_assignments(&self) -> impl Iterator<Item = (NodeId, &str, &[NodeId])> {
        self.taggers_of.iter().flat_map(|(&item, by_tag)| {
            by_tag.iter().map(move |(tag, taggers)| (item, tag.as_str(), taggers.as_slice()))
        })
    }

    /// The tags carried by one item together with their tagger groups, in
    /// arbitrary order. This is the item-first view the clustered index's
    /// recluster-on-join path enumerates to fold a late joiner's non-zero
    /// scores into its new cluster's bounds.
    pub fn item_tags(&self, item: NodeId) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.taggers_of.get(&item).into_iter().flat_map(|by_tag| {
            by_tag.iter().map(|(tag, taggers)| (tag.as_str(), taggers.as_slice()))
        })
    }

    /// Apply a batch of tagging events in order, mutating the frozen
    /// primitives in place, and return how many events were *effective*
    /// (changed the site). Assigning an already-present `(tagger, item,
    /// tag)` triple and retracting an absent one are no-ops; an assign-only
    /// history applied here yields exactly the model
    /// [`Self::from_graph`] builds from the equivalent graph. Networks
    /// never change under tag events — connection links are a different
    /// activity — which is what lets the index delta paths treat
    /// `network(u)` as stable.
    ///
    /// The site model is all-or-nothing by construction: every
    /// fallible step (here, the [`crate::faults::SITE_APPLY`] failpoint)
    /// runs *before* the first mutation, so an `Err` return guarantees the
    /// model is byte-identical to its pre-call state.
    pub fn try_apply(&mut self, events: &[TagEvent]) -> crate::Result<usize> {
        crate::faults::fire(crate::faults::SITE_APPLY)?;
        let mut effective = 0usize;
        for event in events {
            let tag = normalize(event.tag()).into_owned();
            let (tagger, item) = (event.tagger(), event.item());
            match event {
                TagEvent::Assign { .. } => {
                    let taggers =
                        self.taggers_of.entry(item).or_default().entry(tag.clone()).or_default();
                    let Err(pos) = taggers.binary_search(&tagger) else {
                        // Duplicate assignment: the (possibly just-created)
                        // group already lists the tagger, so nothing below
                        // can have changed either.
                        continue;
                    };
                    taggers.insert(pos, tagger);
                    self.users.insert(tagger);
                    self.items.insert(item);
                    let items = self.items_of.entry(tagger).or_default();
                    if let Err(pos) = items.binary_search(&item) {
                        items.insert(pos, item);
                    }
                    self.tags_of.entry(tagger).or_default().insert(tag.clone());
                    self.items_with_tag.entry(tag.clone()).or_default().insert(item);
                    self.tags.insert(tag);
                    effective += 1;
                }
                TagEvent::Retract { .. } => {
                    let Some(by_tag) = self.taggers_of.get_mut(&item) else { continue };
                    let Some(taggers) = by_tag.get_mut(&tag) else { continue };
                    let Ok(pos) = taggers.binary_search(&tagger) else { continue };
                    taggers.remove(pos);
                    let group_emptied = taggers.is_empty();
                    if group_emptied {
                        by_tag.remove(&tag);
                        if by_tag.is_empty() {
                            self.taggers_of.remove(&item);
                        }
                        if let Some(items) = self.items_with_tag.get_mut(&tag) {
                            items.remove(&item);
                            if items.is_empty() {
                                self.items_with_tag.remove(&tag);
                                self.tags.remove(&tag);
                            }
                        }
                    }
                    // `items(u)` drops the item only once the tagger has no
                    // remaining tag on it.
                    let still_tags_item = self.taggers_of.get(&item).is_some_and(|by_tag| {
                        by_tag.values().any(|t| t.binary_search(&tagger).is_ok())
                    });
                    if !still_tags_item {
                        if let Some(items) = self.items_of.get_mut(&tagger) {
                            if let Ok(pos) = items.binary_search(&item) {
                                items.remove(pos);
                            }
                            if items.is_empty() {
                                self.items_of.remove(&tagger);
                            }
                        }
                    }
                    // `tags(u)` drops the tag only once the tagger uses it
                    // on no item at all — and `items(u)`, just brought up
                    // to date, lists every item the tagger still tags.
                    let still_uses_tag = self.items_of(tagger).iter().any(|i| {
                        self.taggers_of
                            .get(i)
                            .and_then(|by_tag| by_tag.get(&tag))
                            .is_some_and(|t| t.binary_search(&tagger).is_ok())
                    });
                    if !still_uses_tag {
                        if let Some(tags) = self.tags_of.get_mut(&tagger) {
                            tags.remove(&tag);
                            if tags.is_empty() {
                                self.tags_of.remove(&tagger);
                            }
                        }
                    }
                    effective += 1;
                }
            }
        }
        if effective > 0 {
            self.stamp = next_build_stamp();
        }
        Ok(effective)
    }

    /// Tags used by a user.
    pub fn tags_of(&self, user: NodeId) -> &BTreeSet<String> {
        static EMPTY: std::sync::OnceLock<BTreeSet<String>> = std::sync::OnceLock::new();
        self.tags_of.get(&user).unwrap_or_else(|| EMPTY.get_or_init(BTreeSet::new))
    }

    /// Items carrying a tag, independently of who asks.
    pub fn items_with_tag(&self, tag: &str) -> &BTreeSet<NodeId> {
        static EMPTY: std::sync::OnceLock<BTreeSet<NodeId>> = std::sync::OnceLock::new();
        self.items_with_tag
            .get(normalize(tag).as_ref())
            .unwrap_or_else(|| EMPTY.get_or_init(BTreeSet::new))
    }

    /// `score_k(i, u) = |network(u) ∩ taggers(i, k)|` — the paper's
    /// exposition choice `f = count`, computed by merging two sorted runs.
    pub fn keyword_score(&self, item: NodeId, user: NodeId, tag: &str) -> f64 {
        let network = self.network_of(user);
        let taggers = self.taggers_of(item, tag);
        count_intersection(network, taggers) as f64
    }

    /// `score(i, u) = Σ_j score_kj(i, u)` — the paper's exposition choice
    /// `g = sum`, taken over the *distinct* keywords of the query: a query
    /// is a keyword set, so repeating a keyword (in any casing) does not
    /// double its contribution. This matches the inverted indexes, which
    /// collapse duplicate keywords at `TagId` resolution.
    pub fn query_score(&self, item: NodeId, user: NodeId, keywords: &[String]) -> f64 {
        self.query_score_distinct(item, user, &distinct_keywords(keywords))
    }

    /// [`Self::query_score`] over keywords the caller has already
    /// deduplicated (e.g. via [`distinct_keywords`]). Top-k callers score
    /// many candidate items against one fixed keyword set — deduplicating
    /// once per query instead of once per candidate keeps the per-item
    /// scorer a bare sum.
    pub fn query_score_distinct(&self, item: NodeId, user: NodeId, keywords: &[&str]) -> f64 {
        keywords.iter().map(|k| self.keyword_score(item, user, k)).sum()
    }

    /// Jaccard similarity of two users' networks (Def. 11 predicate).
    pub fn network_jaccard(&self, a: NodeId, b: NodeId) -> f64 {
        jaccard(self.network_of(a), self.network_of(b))
    }

    /// Jaccard similarity of two users' tagged item sets (Def. 12 predicate).
    pub fn behavior_jaccard(&self, a: NodeId, b: NodeId) -> f64 {
        jaccard(self.items_of(a), self.items_of(b))
    }
}

/// The distinct keywords of a query in first-occurrence order, comparing
/// case-insensitively exactly as [`SiteModel::query_score`] does. Borrowed
/// from the input, so deduplicating a query once up front costs two small
/// vectors, not a string clone per keyword. Each keyword is normalized
/// exactly once: the normalized forms accumulate alongside the output and
/// later keywords compare against them directly, instead of re-normalizing
/// every earlier keyword per comparison.
pub fn distinct_keywords(keywords: &[String]) -> Vec<&str> {
    let mut normed: Vec<std::borrow::Cow<'_, str>> = Vec::with_capacity(keywords.len());
    let mut distinct: Vec<&str> = Vec::with_capacity(keywords.len());
    for keyword in keywords {
        let norm = normalize(keyword);
        if !normed.contains(&norm) {
            distinct.push(keyword);
            normed.push(norm);
        }
    }
    distinct
}

/// Size of the intersection of two ascending id slices (two-pointer merge).
pub(crate) fn count_intersection(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard similarity of two sorted id slices.
pub fn jaccard(a: &[NodeId], b: &[NodeId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = count_intersection(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    /// u0–u1–u2 chain of friendships; u1 and u2 tag item a with "baseball";
    /// u2 tags item b with "museum".
    fn model() -> (SiteModel, Vec<NodeId>, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let u0 = b.add_user("u0");
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let a = b.add_item("a", &["destination"]);
        let bb = b.add_item("b", &["destination"]);
        b.befriend(u0, u1);
        b.befriend(u1, u2);
        b.tag(u1, a, &["baseball"]);
        b.tag(u2, a, &["baseball", "stadium"]);
        b.tag(u2, bb, &["museum"]);
        let g = b.build();
        (SiteModel::from_graph(&g), vec![u0, u1, u2], vec![a, bb])
    }

    #[test]
    fn primitives_are_derived_from_the_graph() {
        let (m, users, items) = model();
        assert_eq!(m.user_count(), 3);
        assert_eq!(m.item_count(), 2);
        assert_eq!(m.tag_count(), 3);
        assert_eq!(m.network_of(users[1]).len(), 2);
        assert_eq!(m.items_of(users[2]).len(), 2);
        assert_eq!(m.taggers_of(items[0], "baseball").len(), 2);
        assert_eq!(m.taggers_of(items[0], "museum").len(), 0);
        assert!(m.tags_of(users[2]).contains("museum"));
        assert_eq!(m.items_with_tag("baseball").len(), 1);
    }

    #[test]
    fn keyword_score_counts_network_taggers() {
        let (m, users, items) = model();
        // u0's network is {u1}; u1 tagged item a with baseball -> score 1.
        assert_eq!(m.keyword_score(items[0], users[0], "baseball"), 1.0);
        // u1's network is {u0, u2}; only u2 tagged a with baseball -> 1.
        assert_eq!(m.keyword_score(items[0], users[1], "baseball"), 1.0);
        // u2's network is {u1}; u1 tagged a with baseball -> 1.
        assert_eq!(m.keyword_score(items[0], users[2], "baseball"), 1.0);
        // Nobody in u0's network tagged item b.
        assert_eq!(m.keyword_score(items[1], users[0], "museum"), 0.0);
    }

    #[test]
    fn query_score_sums_over_keywords() {
        let (m, users, items) = model();
        let q = vec!["baseball".to_string(), "stadium".to_string()];
        // u1's network: u0 (no tags), u2 (baseball + stadium on item a).
        assert_eq!(m.query_score(items[0], users[1], &q), 2.0);
        assert_eq!(m.query_score(items[1], users[1], &q), 0.0);
    }

    #[test]
    fn query_score_counts_duplicate_keywords_once() {
        let (m, users, items) = model();
        let q = vec!["baseball".to_string(), "stadium".to_string()];
        let dup = vec![
            "baseball".to_string(),
            "Stadium".to_string(),
            "BASEBALL".to_string(),
            "stadium".to_string(),
        ];
        assert_eq!(m.query_score(items[0], users[1], &dup), m.query_score(items[0], users[1], &q));
    }

    #[test]
    fn distinct_keywords_keeps_first_occurrences_case_insensitively() {
        let q: Vec<String> = ["Baseball", "BASEBALL", "baseball", "Museum", "baseBALL", "museum"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(distinct_keywords(&q), vec!["Baseball", "Museum"]);
        assert!(distinct_keywords(&[]).is_empty());
    }

    #[test]
    fn duplicate_heavy_queries_score_identically() {
        let (m, users, items) = model();
        let q = vec!["baseball".to_string(), "stadium".to_string()];
        // A pathologically duplicate-heavy query: every keyword repeated
        // many times in alternating casings.
        let mut heavy = Vec::new();
        for i in 0..50 {
            for word in &q {
                heavy.push(if i % 2 == 0 { word.to_uppercase() } else { word.clone() });
            }
        }
        for &u in &users {
            for &i in &items {
                assert_eq!(m.query_score(i, u, &heavy), m.query_score(i, u, &q));
            }
        }
    }

    #[test]
    fn jaccard_similarities() {
        let (m, users, _) = model();
        // networks: u0 {u1}, u1 {u0,u2}, u2 {u1} -> J(u0,u2) = 1.0.
        assert_eq!(m.network_jaccard(users[0], users[2]), 1.0);
        assert_eq!(m.network_jaccard(users[0], users[1]), 0.0);
        // items: u1 {a}, u2 {a,b} -> 1/2.
        assert_eq!(m.behavior_jaccard(users[1], users[2]), 0.5);
        // A user with no activity has Jaccard 0 with everyone.
        assert_eq!(m.behavior_jaccard(users[0], users[1]), 0.0);
    }

    #[test]
    fn tag_assignments_cover_every_tagger_group() {
        let (m, _, items) = model();
        let mut seen = std::collections::BTreeSet::new();
        for (item, tag, taggers) in m.tag_assignments() {
            assert!(!taggers.is_empty());
            assert_eq!(taggers, m.taggers_of(item, tag));
            seen.insert((item, tag.to_string()));
        }
        assert_eq!(seen.len(), 3);
        assert!(seen.contains(&(items[0], "baseball".to_string())));
        assert!(seen.contains(&(items[0], "stadium".to_string())));
        assert!(seen.contains(&(items[1], "museum".to_string())));
    }

    #[test]
    fn tag_lookups_normalize_case() {
        let (m, _, items) = model();
        assert_eq!(m.taggers_of(items[0], "BaseBall").len(), 2);
        assert_eq!(m.items_with_tag("MUSEUM").len(), 1);
    }

    #[test]
    fn missing_users_yield_empty_sets() {
        let (m, ..) = model();
        let ghost = NodeId(999);
        assert!(m.items_of(ghost).is_empty());
        assert!(m.network_of(ghost).is_empty());
        assert_eq!(m.keyword_score(NodeId(998), ghost, "x"), 0.0);
    }
}
