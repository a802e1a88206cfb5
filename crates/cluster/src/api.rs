//! Wire messages between components and apiservers.
//!
//! The API mirrors Kubernetes' observation semantics (§3): reads default to
//! being served from the contacted apiserver's *watch cache* (fast, possibly
//! stale); a `fresh` read forces a quorum read through the store. Watches
//! are served from the cache and resume by resource version, subject to the
//! apiserver's rolling event window ([7] in the paper): resuming below the
//! window fails with [`ApiError::TooOldResourceVersion`].

use ph_store::{Revision, Value};

/// An operation requested of an apiserver.
#[derive(Debug, Clone)]
pub enum Verb {
    /// Read one object.
    Get {
        /// Store key (`"pods/p1"`).
        key: String,
        /// `true` forces a linearizable read through the store; `false`
        /// serves from the apiserver's cache (default Kubernetes behaviour).
        fresh: bool,
    },
    /// Read all objects with a key prefix.
    List {
        /// Key prefix (`"pods/"`).
        prefix: String,
        /// As in [`Verb::Get`].
        fresh: bool,
    },
    /// Create an object (fails if it exists).
    Create {
        /// Store key.
        key: String,
        /// Encoded object.
        value: Value,
    },
    /// Update an object, optionally guarded by its resource version.
    Update {
        /// Store key.
        key: String,
        /// Encoded object.
        value: Value,
        /// Optimistic-concurrency precondition (`None` = last-writer-wins).
        expect_rv: Option<Revision>,
    },
    /// Delete an object outright.
    Delete {
        /// Store key.
        key: String,
    },
    /// Graceful deletion: set the object's `deletionTimestamp` (the object
    /// stays visible until its manager finalizes and deletes it).
    MarkDeleted {
        /// Store key.
        key: String,
    },
}

impl Verb {
    /// The key or prefix this verb touches (for tracing).
    pub fn target(&self) -> &str {
        match self {
            Verb::Get { key, .. }
            | Verb::Create { key, .. }
            | Verb::Update { key, .. }
            | Verb::Delete { key }
            | Verb::MarkDeleted { key } => key,
            Verb::List { prefix, .. } => prefix,
        }
    }
}

/// Nominal wire framing per message (headers, ids, revisions). The sim's
/// network only reads these sizes on finite-bandwidth links; on the default
/// infinite-bandwidth links they are inert.
pub const WIRE_OVERHEAD: u64 = 64;
/// Nominal encoded size of one object item beyond its value bytes (key,
/// revision, type tag).
pub const ITEM_OVERHEAD: u64 = 48;

/// A request to an apiserver.
#[derive(Debug, Clone)]
pub struct ApiRequest {
    /// Client-chosen request id, echoed in the response.
    pub req: u64,
    /// The operation.
    pub verb: Verb,
}

impl ApiRequest {
    /// Estimated encoded size, for finite-bandwidth links.
    pub fn wire_bytes(&self) -> u64 {
        WIRE_OVERHEAD
            + match &self.verb {
                Verb::Create { key, value } | Verb::Update { key, value, .. } => {
                    ITEM_OVERHEAD + key.len() as u64 + value.len() as u64
                }
                v => v.target().len() as u64,
            }
    }
}

/// Successful outcome of an [`ApiRequest`].
#[derive(Debug, Clone)]
pub enum ApiOk {
    /// Get result: the object bytes and resource version, or `None` if the
    /// key does not exist.
    Obj(Option<(Value, Revision)>),
    /// List result: `(value, resource_version)` pairs in key order, plus
    /// the collection's resource version (the view's frontier).
    List {
        /// The objects.
        items: Vec<(String, Value, Revision)>,
        /// Frontier revision of the serving view.
        revision: Revision,
    },
    /// A write committed at this revision.
    Written(Revision),
    /// A delete committed (`existed` tells whether anything was removed).
    Deleted {
        /// Whether the key existed.
        existed: bool,
    },
}

/// Failure of an [`ApiRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// CAS precondition failed; carries the key's actual resource version
    /// (`None` = does not exist).
    Conflict(Option<Revision>),
    /// Create of an existing key, or mutation of a missing one.
    NotFound,
    /// Create collided with an existing object.
    AlreadyExists,
    /// The apiserver cannot reach the store right now; retry.
    Unavailable,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::Conflict(rv) => write!(f, "conflict (actual rv {rv:?})"),
            ApiError::NotFound => write!(f, "not found"),
            ApiError::AlreadyExists => write!(f, "already exists"),
            ApiError::Unavailable => write!(f, "apiserver unavailable"),
        }
    }
}
impl std::error::Error for ApiError {}

/// An apiserver's reply.
#[derive(Debug, Clone)]
pub struct ApiResponse {
    /// Echoed request id.
    pub req: u64,
    /// Outcome.
    pub result: Result<ApiOk, ApiError>,
}

impl ApiResponse {
    /// Estimated encoded size, for finite-bandwidth links. List replies
    /// dominate: they carry every object in the prefix, which is what makes
    /// relist storms saturate a throttled feed.
    pub fn wire_bytes(&self) -> u64 {
        WIRE_OVERHEAD
            + match &self.result {
                Ok(ApiOk::List { items, .. }) => items
                    .iter()
                    .map(|(k, v, _)| ITEM_OVERHEAD + k.len() as u64 + v.len() as u64)
                    .sum(),
                Ok(ApiOk::Obj(Some((v, _)))) => ITEM_OVERHEAD + v.len() as u64,
                _ => 0,
            }
    }
}

/// One object-level change on a watch stream.
#[derive(Debug, Clone)]
pub struct ObjEvent {
    /// The object's store key.
    pub key: String,
    /// Revision at which the change committed.
    pub revision: Revision,
    /// New object bytes (`None` = the object was deleted).
    pub value: Option<Value>,
}

impl ph_store::watch::StreamEvent for ObjEvent {
    fn has_prefix(&self, prefix: &str) -> bool {
        self.key.starts_with(prefix)
    }
}

impl ObjEvent {
    /// `true` for deletions.
    pub fn is_delete(&self) -> bool {
        self.value.is_none()
    }

    /// Estimated encoded size, for finite-bandwidth links.
    pub fn wire_bytes(&self) -> u64 {
        ITEM_OVERHEAD
            + self.key.len() as u64
            + self.value.as_ref().map(|v| v.len() as u64).unwrap_or(0)
    }
}

/// Opens a watch on an apiserver.
#[derive(Debug, Clone)]
pub struct ApiWatchCreate {
    /// Client-chosen watch id.
    pub watch: u64,
    /// Key prefix filter.
    pub prefix: String,
    /// Deliver events strictly after this revision ([`Revision::ZERO`] =
    /// from the apiserver's current cache state).
    pub after: Revision,
}

/// Cancels a watch.
#[derive(Debug, Clone)]
pub struct ApiWatchCancelReq {
    /// The watch.
    pub watch: u64,
}

impl ph_store::watch::StreamWire for ApiWatchCreate {
    type Cancel = ApiWatchCancelReq;
    const RECONNECTS: Option<&'static str> = Some("apiclient.watch_reconnects");

    fn create(watch: u64, prefix: String, after: Revision) -> ApiWatchCreate {
        ApiWatchCreate {
            watch,
            prefix,
            after,
        }
    }

    fn cancel(watch: u64) -> ApiWatchCancelReq {
        ApiWatchCancelReq { watch }
    }
}

/// A batch of events on a watch stream.
#[derive(Debug, Clone)]
pub struct ApiWatchEvent {
    /// The watch.
    pub watch: u64,
    /// Per-watch stream sequence number (dense from 0 per registration);
    /// a gap means the network lost a stream message and the client must
    /// reconnect from its last contiguous revision.
    pub stream_seq: u64,
    /// Events in revision order (shared with the apiserver's window —
    /// fan-out to N watchers bumps refcounts, never deep-copies).
    pub events: Vec<std::rc::Rc<ObjEvent>>,
    /// The serving apiserver's cache revision after this batch.
    pub revision: Revision,
}

impl ApiWatchEvent {
    /// Estimated encoded size, for finite-bandwidth links.
    pub fn wire_bytes(&self) -> u64 {
        WIRE_OVERHEAD + self.events.iter().map(|e| e.wire_bytes()).sum::<u64>()
    }
}

/// Idle-stream progress notification.
#[derive(Debug, Clone)]
pub struct ApiWatchProgress {
    /// The watch.
    pub watch: u64,
    /// Stream sequence number (shared counter with [`ApiWatchEvent`]).
    pub stream_seq: u64,
    /// The serving apiserver's cache revision.
    pub revision: Revision,
}

/// Server-initiated watch termination.
#[derive(Debug, Clone)]
pub struct ApiWatchCancelled {
    /// The watch.
    pub watch: u64,
    /// Why.
    pub reason: WatchError,
}

/// Why a watch was refused or cancelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchError {
    /// The requested resume revision predates the apiserver's rolling event
    /// window — the client must re-list ([7]; §4.2.3).
    TooOldResourceVersion {
        /// Oldest revision still in the window.
        oldest: Revision,
    },
    /// The apiserver's own cache is not serving yet; re-list (and thereby
    /// re-watch) once it is.
    NotReady,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_targets() {
        assert_eq!(
            Verb::Get {
                key: "pods/p1".into(),
                fresh: false
            }
            .target(),
            "pods/p1"
        );
        assert_eq!(
            Verb::List {
                prefix: "pods/".into(),
                fresh: true
            }
            .target(),
            "pods/"
        );
        assert_eq!(
            Verb::MarkDeleted {
                key: "pods/x".into()
            }
            .target(),
            "pods/x"
        );
    }

    #[test]
    fn obj_event_delete_detection() {
        let e = ObjEvent {
            key: "pods/p1".into(),
            revision: Revision(4),
            value: None,
        };
        assert!(e.is_delete());
        let e = ObjEvent {
            value: Some(Value::from_static(b"x")),
            ..e
        };
        assert!(!e.is_delete());
    }

    #[test]
    fn api_error_displays() {
        assert!(ApiError::Conflict(Some(Revision(2)))
            .to_string()
            .contains("conflict"));
        assert_eq!(ApiError::NotFound.to_string(), "not found");
    }
}
