//! Error type for the content management layer.

use std::fmt;

/// Errors raised by content-management operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentError {
    /// A referenced user is not known to the site model.
    UnknownUser(socialscope_graph::NodeId),
    /// A referenced item is not known to the site model.
    UnknownItem(socialscope_graph::NodeId),
    /// A remote site could not be reached (simulated outage).
    RemoteUnavailable(String),
    /// The user has not granted the content site permission to read their
    /// social data from the remote site (Open Cartel model).
    PermissionDenied {
        /// The remote site.
        site: String,
        /// The user whose data was requested.
        user: socialscope_graph::NodeId,
    },
    /// An index was queried for a tag it does not contain.
    UnknownTag(String),
    /// A generic invariant violation.
    Invariant(String),
    /// A build or apply would overflow an internal capacity limit (e.g.
    /// more than `u32::MAX - 1` indexed users or bound lists). The
    /// operation is rejected *before* any state changes — the site and
    /// indexes are untouched — instead of aborting the process.
    CapacityExceeded {
        /// What ran out of representable room (e.g. `"indexed users"`).
        what: &'static str,
        /// The capacity limit that would have been exceeded.
        limit: u64,
    },
    /// A staged apply was handed to `commit` after the state it was staged
    /// against had moved on (another effective batch committed in between).
    /// The commit is refused *before* any state changes; stage the batch
    /// again against the current state.
    StaleStage {
        /// The build stamp the stage read.
        staged: u64,
        /// The live build stamp it no longer matches.
        live: u64,
    },
    /// A deterministic fault injected by the `failpoints` test harness
    /// (only ever constructed with the `failpoints` cargo feature on).
    FaultInjected {
        /// The failpoint site that fired.
        site: String,
    },
}

impl fmt::Display for ContentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentError::UnknownUser(u) => write!(f, "unknown user {u}"),
            ContentError::UnknownItem(i) => write!(f, "unknown item {i}"),
            ContentError::RemoteUnavailable(s) => write!(f, "remote site `{s}` is unavailable"),
            ContentError::PermissionDenied { site, user } => {
                write!(f, "user {user} has not granted `{site}` access to their social data")
            }
            ContentError::UnknownTag(t) => write!(f, "tag `{t}` is not indexed"),
            ContentError::Invariant(msg) => write!(f, "content invariant violated: {msg}"),
            ContentError::CapacityExceeded { what, limit } => {
                write!(f, "capacity exceeded: more than {limit} {what}")
            }
            ContentError::StaleStage { staged, live } => {
                write!(f, "stale staged apply: staged against build stamp {staged}, live is {live}")
            }
            ContentError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint `{site}`")
            }
        }
    }
}

impl std::error::Error for ContentError {}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::NodeId;

    #[test]
    fn display_messages() {
        assert!(ContentError::UnknownUser(NodeId(1)).to_string().contains("n1"));
        assert!(ContentError::RemoteUnavailable("facebook".into())
            .to_string()
            .contains("facebook"));
        let e = ContentError::PermissionDenied { site: "flickr".into(), user: NodeId(2) };
        assert!(e.to_string().contains("flickr"));
        let e = ContentError::CapacityExceeded { what: "indexed users", limit: 42 };
        assert_eq!(e.to_string(), "capacity exceeded: more than 42 indexed users");
        let e = ContentError::StaleStage { staged: 3, live: 5 };
        assert!(e.to_string().contains("stamp 3") && e.to_string().contains("live is 5"));
        let e = ContentError::FaultInjected { site: "content::site_apply".into() };
        assert!(e.to_string().contains("content::site_apply"));
    }
}
