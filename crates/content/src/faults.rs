//! The content layer's registered failpoint sites.
//!
//! Robustness tests arm these through
//! `socialscope_exec::failpoints::FailScenario` (with the `failpoints`
//! cargo feature on — chained through this crate's own `failpoints`
//! feature, so the type only exists in such builds) to inject
//! deterministic faults at the boundaries of the transactional apply
//! paths and the deadline clock. Production builds compile every fire
//! call to an inlined no-op.
//!
//! The contract every site participates in: a fault fired *anywhere* in an
//! apply leaves the site model, the indexes and the clustering
//! byte-identical to their pre-apply state (every apply failpoint sits in
//! a `stage`, which only borrows the live state; `commit` has none), and a
//! fault at [`DEADLINE`] makes the
//! batch deadline report expiry — the defined partial-results degradation —
//! without a wall clock in the test.

/// Fired at the top of [`crate::SiteModel::try_apply`], before any
/// mutation.
pub const SITE_APPLY: &str = "content::site_apply";

/// Fired in [`crate::ExactIndex`]'s apply after staging (interning,
/// recompute) but before validation and commit.
pub const EXACT_APPLY_STAGE: &str = "content::exact_apply::stage";

/// Fired in [`crate::ExactIndex`]'s apply after validation, as the last
/// step of the stage — immediately before the commit point.
pub const EXACT_APPLY_COMMIT: &str = "content::exact_apply::commit";

/// Fired after the clustered apply's phase 1 (recluster-on-join, staged).
pub const CLUSTERED_APPLY_PHASE1: &str = "content::clustered_apply::phase1";

/// Fired after the clustered apply's phase 2 (refinement group changes
/// computed, successor arena not yet assembled).
pub const CLUSTERED_APPLY_PHASE2: &str = "content::clustered_apply::phase2";

/// Fired after the clustered apply's phase 3 (bound recomputation and
/// capacity validation), immediately before the commit point.
pub const CLUSTERED_APPLY_PHASE3: &str = "content::clustered_apply::phase3";

/// Fired on every cooperative deadline check of the batch serving paths.
/// Arming it with `FailAction::Fault { after: n }` forces the clock to
/// report expiry from the `n`-th check onward (sticky), which is how the
/// partial-results contract is tested without real time pressure.
pub const DEADLINE: &str = "content::deadline";

/// Every apply-path failpoint site the content layer registers, for tests
/// that sweep "a fault at *any* site rolls back cleanly". [`DEADLINE`] is
/// deliberately absent: it models time pressure, not an apply fault.
pub const APPLY_SITES: &[&str] = &[
    SITE_APPLY,
    EXACT_APPLY_STAGE,
    EXACT_APPLY_COMMIT,
    CLUSTERED_APPLY_PHASE1,
    CLUSTERED_APPLY_PHASE2,
    CLUSTERED_APPLY_PHASE3,
];

/// Fire a content-layer failpoint, mapping an injected fault to
/// [`crate::ContentError::FaultInjected`]. A no-op returning `Ok(())`
/// unless the `failpoints` feature is on and the site armed.
#[inline]
pub(crate) fn fire(site: &str) -> crate::Result<()> {
    socialscope_exec::failpoints::fire(site, 0)
        .map_err(|fault| crate::ContentError::FaultInjected { site: fault.site })
}
