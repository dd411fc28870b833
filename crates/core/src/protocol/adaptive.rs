//! Adaptive consistency: switch protocols under load.
//!
//! The paper's long-term goal is scheduling for cloud environments where
//! "reduced consistency criteria may be used during times of high load", and
//! its future work names "an adaptive consistency scheduler which varies the
//! applied consistency protocols based on metadata and business application
//! requirements".  [`AdaptiveProtocol`] is that scheduler policy: below a
//! configurable pending-load threshold it uses its *normal* (strict)
//! protocol; at or above the threshold it switches to its *overload*
//! (relaxed) protocol.  Because protocols are data, the switch is just a
//! different rule set being handed to the same evaluator.

use super::{Protocol, ProtocolKind};

/// A pair of protocols plus the load threshold at which to switch.
#[derive(Debug, Clone)]
pub struct AdaptiveProtocol {
    /// Protocol used under normal load.
    pub normal: Protocol,
    /// Protocol used at or above the overload threshold.
    pub overload: Protocol,
    /// Pending-request count at which the scheduler switches to the
    /// overload protocol.
    pub overload_threshold: usize,
}

impl AdaptiveProtocol {
    /// The configuration the paper sketches: SS2PL normally, relaxed reads
    /// under overload, each on its relational-algebra plan.
    pub fn ss2pl_with_relaxed_overflow(overload_threshold: usize) -> Self {
        AdaptiveProtocol {
            normal: Protocol::algebra(ProtocolKind::Ss2pl),
            overload: Protocol::algebra(ProtocolKind::RelaxedReads),
            overload_threshold,
        }
    }

    /// Select the protocol to apply for a round with `pending` requests
    /// waiting.
    pub fn select(&self, pending: usize) -> &Protocol {
        if pending >= self.overload_threshold {
            &self.overload
        } else {
            &self.normal
        }
    }

    /// Whether the given load would run in overload mode.
    pub fn is_overloaded(&self, pending: usize) -> bool {
        pending >= self.overload_threshold
    }
}

/// The policy a [`crate::scheduler::DeclarativeScheduler`] is configured
/// with: either one fixed protocol or an adaptive pair.
#[derive(Debug, Clone)]
pub enum SchedulingPolicy {
    /// Always apply the same protocol.
    Fixed(Protocol),
    /// Switch between protocols based on pending load.
    Adaptive(AdaptiveProtocol),
}

impl SchedulingPolicy {
    /// The protocol to apply for a round with `pending` requests waiting.
    pub fn select(&self, pending: usize) -> &Protocol {
        match self {
            SchedulingPolicy::Fixed(p) => p,
            SchedulingPolicy::Adaptive(a) => a.select(pending),
        }
    }

    /// A label describing the policy (used in metrics and experiment output).
    pub fn label(&self) -> String {
        match self {
            SchedulingPolicy::Fixed(p) => p.name().to_string(),
            SchedulingPolicy::Adaptive(a) => format!(
                "adaptive({}→{}@{})",
                a.normal.name(),
                a.overload.name(),
                a.overload_threshold
            ),
        }
    }
}

impl From<Protocol> for SchedulingPolicy {
    fn from(p: Protocol) -> Self {
        SchedulingPolicy::Fixed(p)
    }
}

impl From<AdaptiveProtocol> for SchedulingPolicy {
    fn from(a: AdaptiveProtocol) -> Self {
        SchedulingPolicy::Adaptive(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switches_at_the_threshold() {
        let adaptive = AdaptiveProtocol::ss2pl_with_relaxed_overflow(100);
        assert_eq!(adaptive.select(0).kind, ProtocolKind::Ss2pl);
        assert_eq!(adaptive.select(99).kind, ProtocolKind::Ss2pl);
        assert_eq!(adaptive.select(100).kind, ProtocolKind::RelaxedReads);
        assert_eq!(adaptive.select(5_000).kind, ProtocolKind::RelaxedReads);
        assert!(adaptive.is_overloaded(100));
        assert!(!adaptive.is_overloaded(99));
    }

    #[test]
    fn policy_wrapping_and_labels() {
        let fixed: SchedulingPolicy = Protocol::algebra(ProtocolKind::Ss2pl).into();
        assert_eq!(fixed.label(), "ss2pl");
        assert_eq!(fixed.select(1_000_000).kind, ProtocolKind::Ss2pl);

        let adaptive: SchedulingPolicy = AdaptiveProtocol::ss2pl_with_relaxed_overflow(50).into();
        assert!(adaptive.label().contains("adaptive"));
        assert!(adaptive.label().contains("relaxed-reads"));
        assert_eq!(adaptive.select(49).kind, ProtocolKind::Ss2pl);
        assert_eq!(adaptive.select(51).kind, ProtocolKind::RelaxedReads);
    }
}
