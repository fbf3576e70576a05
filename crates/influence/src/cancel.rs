//! Cooperative cancellation for long-running query work.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between a query's
//! planner and every worker doing sampling / clustering / index work on its
//! behalf. Workers poll it at coarse checkpoints (per RR-sample batch, per
//! HFS level, per merge wave, per linkage round); the token never interrupts
//! anything by itself, it only answers "should this work stop now?".
//!
//! Two triggers can fire a token:
//!
//! * an explicit [`CancelToken::cancel`] call (tests, admission control);
//! * a wall-clock **deadline** (checked lazily inside
//!   [`CancelToken::should_stop`], so the fast path is one relaxed atomic
//!   load).
//!
//! Determinism contract: polling a token never touches an RNG and never
//! reorders work, so a token that never fires is invisible — results are
//! bit-identical to running without one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// A parent whose firing cancels this token too (but never the other
    /// way round). Lets a server fire one engine-wide kill switch that
    /// reaches every in-flight query without tracking them individually.
    parent: Option<CancelToken>,
}

/// Shared cancellation flag with an optional deadline.
///
/// Cloning is an `Arc` bump; all clones observe the same state.
///
/// ```
/// use cod_influence::CancelToken;
/// use std::time::Duration;
///
/// let t = CancelToken::with(Some(Duration::from_secs(3600)));
/// let worker = t.clone();
/// assert!(!worker.should_stop());
/// t.cancel();
/// assert!(worker.is_cancelled());
/// ```
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline: it only fires when
    /// [`cancel`](Self::cancel) is called explicitly.
    pub fn unlimited() -> Self {
        Self::with(None)
    }

    /// A token that fires after `deadline` elapses (measured from now).
    pub fn with(deadline: Option<Duration>) -> Self {
        Self::build(deadline, None)
    }

    /// Like [`CancelToken::with`], but additionally linked to `parent`:
    /// when the parent fires (or its deadline passes), this token observes
    /// it too. Firing the child never fires the parent. One parent can
    /// back any number of children — the engine uses this to give a server
    /// a single drain kill switch covering every in-flight query.
    pub fn with_parent(deadline: Option<Duration>, parent: &CancelToken) -> Self {
        Self::build(deadline, Some(parent.clone()))
    }

    fn build(deadline: Option<Duration>, parent: Option<CancelToken>) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: deadline.map(|d| Instant::now() + d),
                parent,
            }),
        }
    }

    /// Fires the token. Idempotent; never un-fires. A fired child leaves
    /// its parent untouched.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired — a relaxed load per ancestor, no clock
    /// read. Suitable for the hottest checkpoint loops (the common case is
    /// a parentless token: exactly one load).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match &self.inner.parent {
            Some(p) => p.is_cancelled(),
            None => false,
        }
    }

    /// Whether work should stop now: the flag, then (only if one is set)
    /// the deadline. A passed deadline latches the flag so later
    /// [`is_cancelled`](Self::is_cancelled) calls see it without re-reading
    /// the clock.
    pub fn should_stop(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.cancel();
                return true;
            }
        }
        // The parent's own deadline is lazy too; checking it here latches
        // the parent, so every sibling sees the stop on its next cheap poll.
        if let Some(p) = &self.inner.parent {
            if p.should_stop() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_latches() {
        let t = CancelToken::unlimited();
        assert!(!t.is_cancelled());
        assert!(!t.should_stop());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(t.should_stop());
    }

    #[test]
    fn zero_deadline_fires_on_first_poll() {
        let t = CancelToken::with(Some(Duration::ZERO));
        // The cheap check alone never reads the clock.
        assert!(!t.is_cancelled());
        assert!(t.should_stop());
        // ...and the stop latched into the flag.
        assert!(t.is_cancelled());
    }

    #[test]
    fn parent_cancellation_reaches_children_but_not_vice_versa() {
        let parent = CancelToken::unlimited();
        let a = CancelToken::with_parent(None, &parent);
        let b = CancelToken::with_parent(Some(Duration::from_secs(3600)), &parent);
        assert!(!a.is_cancelled() && !b.is_cancelled());
        // A fired child leaves the parent and its siblings untouched.
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!parent.is_cancelled() && !b.is_cancelled());
        // The parent firing reaches every child.
        parent.cancel();
        assert!(b.is_cancelled() && b.should_stop());
    }

    #[test]
    fn parent_deadline_latches_through_child_polls() {
        let parent = CancelToken::with(Some(Duration::ZERO));
        let child = CancelToken::with_parent(None, &parent);
        // The cheap check alone reads no clock, so nothing fired yet.
        assert!(!child.is_cancelled());
        // A full poll consults the parent's deadline and latches it.
        assert!(child.should_stop());
        assert!(parent.is_cancelled());
        assert!(child.is_cancelled());
    }
}
