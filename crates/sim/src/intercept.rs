//! Message interception — the fault-injection hook.
//!
//! An [`Interceptor`] sees every message the instant it is sent, before the
//! network model runs, and rules on its fate. This is the mechanism behind
//! the paper's §7 perturbations: delaying cache updates (staleness), dropping
//! notifications (observability gaps), and holding events for replay after a
//! restart (time traveling) are all implemented as interceptors in
//! `ph-core::perturb`.

use crate::msg::Envelope;
use crate::time::{Duration, SimTime};

/// The interceptor's ruling on one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Hand the message to the network untouched.
    Pass,
    /// Silently drop it (traced as [`crate::trace::DropReason::Interceptor`]).
    Drop,
    /// Add extra latency on top of whatever the network decides.
    Delay(Duration),
    /// Park the message in the world's held set; it stays there until the
    /// harness calls [`crate::World::release_held`] (or drops it).
    Hold,
}

/// Rules on the fate of messages at send time.
///
/// Implementations must be deterministic: the verdict may depend only on the
/// envelope, the current time and the interceptor's own state.
pub trait Interceptor {
    /// Called once per send, before the network model.
    fn on_send(&mut self, env: &Envelope, now: SimTime) -> Verdict;
}

/// An interceptor that passes everything through (the default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullInterceptor;

impl Interceptor for NullInterceptor {
    fn on_send(&mut self, _env: &Envelope, _now: SimTime) -> Verdict {
        Verdict::Pass
    }
}

impl<F> Interceptor for F
where
    F: FnMut(&Envelope, SimTime) -> Verdict,
{
    fn on_send(&mut self, env: &Envelope, now: SimTime) -> Verdict {
        self(env, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ActorId, MsgId};
    use crate::msg::AnyMsg;

    fn env() -> Envelope {
        Envelope {
            id: MsgId(0),
            src: ActorId(0),
            dst: ActorId(1),
            sent_at: SimTime::ZERO,
            kind: "test::Msg",
            short: "Msg",
            bytes: 0,
            msg: AnyMsg::new(1u8),
        }
    }

    #[test]
    fn null_interceptor_passes() {
        assert_eq!(
            NullInterceptor.on_send(&env(), SimTime::ZERO),
            Verdict::Pass
        );
    }

    #[test]
    fn closures_are_interceptors() {
        let mut count = 0;
        let mut f = |e: &Envelope, _t: SimTime| {
            count += 1;
            if e.kind_short() == "Msg" {
                Verdict::Drop
            } else {
                Verdict::Pass
            }
        };
        assert_eq!(f.on_send(&env(), SimTime::ZERO), Verdict::Drop);
        assert_eq!(count, 1);
    }
}
