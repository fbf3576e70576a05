//! The typed error taxonomy for the COD query engine.
//!
//! Every externally reachable failure — bad query parameters, malformed
//! graph data, a corrupt persisted index, plain I/O trouble, or an
//! exhausted sampling budget — maps to one [`CodError`] variant, so callers
//! (the `cod` CLI, servers embedding the crate) can match on the *kind* of
//! failure and react: reject the request, rebuild the index, or surface a
//! one-line diagnostic. Internal invariants keep using `assert!`/
//! `unreachable!`; anything a user can trigger returns `Err` instead of
//! panicking (see `DESIGN.md`).

use cod_hierarchy::DendrogramError;

/// Convenience alias used across the query surface.
pub type CodResult<T> = Result<T, CodError>;

/// Every way a COD operation can fail.
#[derive(Debug)]
pub enum CodError {
    /// The query parameters fail validation (node id out of range, unknown
    /// attribute, `k == 0`, `theta == 0`, …). Raised at the API boundary
    /// before any work happens.
    InvalidQuery(String),
    /// Input graph or hierarchy data is structurally malformed.
    GraphFormat(String),
    /// A persisted index failed validation: bad magic, unsupported or
    /// inconsistent header fields, checksum mismatch, truncation — anything
    /// that means the bytes cannot be trusted.
    IndexCorrupt(String),
    /// An underlying I/O operation failed (file missing, permissions,
    /// disk full, …).
    Io(std::io::Error),
    /// The configured sample budget is too small to draw even one RR
    /// sample, so no best-effort answer exists.
    BudgetExhausted {
        /// The configured total-sample budget.
        budget: usize,
        /// Samples a full evaluation of this query draws: `θ` per node of
        /// the chain universe (the chain-wide total, not the per-node θ).
        required: usize,
    },
    /// The query's deadline ([`crate::CodConfig::deadline`]) passed, or the
    /// engine's kill switch fired, and no rung of the degradation ladder
    /// could produce even a best-effort answer in the time left.
    DeadlineExceeded,
    /// The engine's in-flight admission cap was reached and this query was
    /// shed instead of queued. Retriable: admitted work keeps draining, so
    /// resubmitting after a backoff will eventually be admitted.
    Overloaded {
        /// The `max_inflight` cap that was hit.
        max_inflight: usize,
        /// How long the engine suggests waiting before a retry, derived
        /// from how persistently the cap has been saturated (consecutive
        /// sheds double it, a successful admission resets it). HTTP
        /// callers surface it as `Retry-After`; CLI callers print it.
        retry_after: std::time::Duration,
    },
    /// A panic escaped a query worker or a build closure and was contained
    /// at the engine boundary. The engine itself stays serviceable; the
    /// payload is the panic message.
    Internal(String),
    /// A mutation replay (`cod mutate --log`, WAL recovery) stopped partway:
    /// `applied` events landed before 1-based event `failed_event` raised
    /// `cause`. Everything before the failure is applied and durable, so an
    /// operator can fix the offending record and resume from it.
    ReplayHalted {
        /// Events successfully applied before the failure.
        applied: usize,
        /// 1-based index of the event that failed.
        failed_event: usize,
        /// The underlying failure.
        cause: Box<CodError>,
    },
}

impl CodError {
    /// Whether resubmitting the same request later can reasonably succeed
    /// without any change on the caller's side. Only load shedding
    /// qualifies: every other variant reflects the request or the data.
    pub fn is_retriable(&self) -> bool {
        matches!(self, CodError::Overloaded { .. })
    }
}

impl std::fmt::Display for CodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            CodError::GraphFormat(m) => write!(f, "malformed graph data: {m}"),
            CodError::IndexCorrupt(m) => write!(f, "corrupt index: {m}"),
            CodError::Io(e) => write!(f, "i/o error: {e}"),
            CodError::BudgetExhausted { budget, required } => write!(
                f,
                "sample budget exhausted: {budget} samples allowed but the query needs at least {required}"
            ),
            CodError::DeadlineExceeded => write!(
                f,
                "deadline exceeded: no degradation-ladder rung produced an answer in time"
            ),
            CodError::Overloaded {
                max_inflight,
                retry_after,
            } => write!(
                f,
                "engine overloaded: {max_inflight} queries already in flight \
                 (retriable; suggest waiting {}ms)",
                retry_after.as_millis()
            ),
            CodError::Internal(m) => write!(f, "internal error: {m}"),
            CodError::ReplayHalted {
                applied,
                failed_event,
                cause,
            } => write!(
                f,
                "replay halted at event {failed_event}: {applied} event(s) applied; {cause}"
            ),
        }
    }
}

impl std::error::Error for CodError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodError {
    fn from(e: std::io::Error) -> Self {
        CodError::Io(e)
    }
}

impl From<DendrogramError> for CodError {
    fn from(e: DendrogramError) -> Self {
        CodError::GraphFormat(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line_and_prefixed() {
        let cases: Vec<CodError> = vec![
            CodError::InvalidQuery("node 99 out of range".into()),
            CodError::GraphFormat("dangling edge".into()),
            CodError::IndexCorrupt("section crc mismatch".into()),
            CodError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
            CodError::BudgetExhausted {
                budget: 0,
                required: 10,
            },
            CodError::DeadlineExceeded,
            CodError::Overloaded {
                max_inflight: 4,
                retry_after: std::time::Duration::from_millis(25),
            },
            CodError::Internal("worker panicked: boom".into()),
            CodError::ReplayHalted {
                applied: 3,
                failed_event: 4,
                cause: Box::new(CodError::InvalidQuery("node 99 out of range".into())),
            },
        ];
        for e in cases {
            let s = e.to_string();
            assert!(!s.contains('\n'), "{s:?}");
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn only_overload_is_retriable() {
        assert!(CodError::Overloaded {
            max_inflight: 1,
            retry_after: std::time::Duration::from_millis(25),
        }
        .is_retriable());
        assert!(!CodError::DeadlineExceeded.is_retriable());
        assert!(!CodError::Internal("x".into()).is_retriable());
        assert!(!CodError::InvalidQuery("x".into()).is_retriable());
        assert!(!CodError::ReplayHalted {
            applied: 0,
            failed_event: 1,
            cause: Box::new(CodError::DeadlineExceeded),
        }
        .is_retriable());
    }

    #[test]
    fn dendrogram_errors_convert_to_graph_format() {
        let e: CodError = DendrogramError::NoLeaves.into();
        assert!(matches!(e, CodError::GraphFormat(_)));
        assert!(e.to_string().contains("at least one leaf"));
    }
}
