//! Messages and envelopes.
//!
//! The simulator is payload-agnostic: actors exchange [`AnyMsg`]s, which are
//! type-erased boxes downcast by the receiver. The envelope carries the
//! metadata (sender, destination, send time, a human-readable kind string)
//! that the trace and the perturbation interceptors operate on, so fault
//! injection never needs to understand payload types.

use std::any::Any;

use crate::ids::{ActorId, MsgId};
use crate::time::SimTime;

/// A type-erased message payload.
///
/// Payloads must be `Debug` so traces stay human-readable; the
/// [`AnyMsg::downcast_ref`]/[`AnyMsg::downcast`] helpers recover the concrete
/// type on the receiving side.
pub struct AnyMsg(Box<dyn ErasedMsg>);

/// Object-safe bound for message payloads.
trait ErasedMsg: Any + std::fmt::Debug {
    fn as_any(&self) -> &dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + std::fmt::Debug> ErasedMsg for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl AnyMsg {
    /// Wraps a concrete payload.
    pub fn new<T: Any + std::fmt::Debug>(payload: T) -> AnyMsg {
        AnyMsg(Box::new(payload))
    }

    /// Borrows the payload as `T`, or `None` if the payload has a different
    /// type.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        // Explicit deref: the blanket `ErasedMsg` impl also covers
        // `Box<dyn ErasedMsg>`, and plain method syntax would resolve on the
        // box instead of the payload.
        ErasedMsg::as_any(&*self.0).downcast_ref::<T>()
    }

    /// Returns `true` if the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.downcast_ref::<T>().is_some()
    }

    /// Consumes the message, recovering the payload as `T`.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` unchanged if the payload has a different type.
    pub fn downcast<T: Any>(self) -> Result<T, AnyMsg> {
        if self.is::<T>() {
            let any: Box<dyn Any> = ErasedMsg::into_any(self.0);
            Ok(*any.downcast::<T>().expect("type checked above"))
        } else {
            Err(self)
        }
    }
}

impl std::fmt::Debug for AnyMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// A message in flight: payload plus routing and tracing metadata.
#[derive(Debug)]
pub struct Envelope {
    /// Unique id of this send.
    pub id: MsgId,
    /// Sending actor.
    pub src: ActorId,
    /// Destination actor.
    pub dst: ActorId,
    /// Logical time at which the send happened.
    pub sent_at: SimTime,
    /// Human-readable payload type name (for traces and interceptor
    /// matching); derived from `std::any::type_name` of the payload.
    pub kind: &'static str,
    /// [`Envelope::kind_short`], taken once at send time for every trace
    /// event about this message.
    pub(crate) short: &'static str,
    /// Modelled wire size in bytes. Only finite-bandwidth links read it;
    /// `0` (the [`crate::Ctx::send`] default) costs nothing to transmit.
    pub bytes: u64,
    /// The payload itself.
    pub msg: AnyMsg,
}

impl Envelope {
    /// Short form of [`Envelope::kind`]: the path-stripped type name
    /// (`"AppendEntries"` rather than `"ph_store::raft::AppendEntries"`).
    pub fn kind_short(&self) -> &'static str {
        self.short
    }
}

/// The path-stripped form of a payload type name, taken once per send for
/// [`Envelope::kind_short`].
pub(crate) fn short_kind(kind: &'static str) -> &'static str {
    kind.rsplit("::").next().unwrap_or(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Foo(u32);
    #[derive(Debug)]
    struct Bar;

    #[test]
    fn downcast_ref_recovers_payload() {
        let m = AnyMsg::new(Foo(7));
        assert_eq!(m.downcast_ref::<Foo>(), Some(&Foo(7)));
        assert!(m.downcast_ref::<Bar>().is_none());
        assert!(m.is::<Foo>());
        assert!(!m.is::<Bar>());
    }

    #[test]
    fn downcast_by_value_round_trips() {
        let m = AnyMsg::new(Foo(9));
        let got = m.downcast::<Foo>().expect("correct type");
        assert_eq!(got, Foo(9));
    }

    #[test]
    fn downcast_wrong_type_returns_original() {
        let m = AnyMsg::new(Foo(9));
        let m = m.downcast::<Bar>().expect_err("wrong type");
        assert_eq!(m.downcast_ref::<Foo>(), Some(&Foo(9)));
    }

    #[test]
    fn kind_short_strips_module_path() {
        assert_eq!(short_kind("ph_store::raft::AppendEntries"), "AppendEntries");
        assert_eq!(short_kind("Unqualified"), "Unqualified");
    }

    #[test]
    fn debug_renders_payload() {
        let m = AnyMsg::new(Foo(3));
        assert_eq!(format!("{m:?}"), "Foo(3)");
    }
}
