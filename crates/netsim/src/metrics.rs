//! Time and message accounting shared by both engines.

use std::fmt;

/// Classification of a message for accounting purposes.
///
/// The paper distinguishes the messages of the original synchronous algorithm `A`
/// from the extra messages spent by the synchronizer; the complexity theorems bound
/// the two separately (`M(A')` ≤ init + overhead · `M(A)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// A message of the underlying algorithm `A` (possibly wrapped in an envelope).
    Algorithm,
    /// A synchronizer / control message (safety reports, registrations, Go-Aheads,
    /// cluster convergecasts, pulse-readiness messages of α/β/γ, ...).
    Control,
}

/// Aggregated counters for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Messages sent, indexed by `MessageClass as usize` (transport
    /// acknowledgments excluded).
    pub messages: [u64; 2],
    /// Link-level acknowledgments sent (asynchronous engine only).
    pub acks: u64,
    /// Normalized time (in units of `τ`) until every node has produced its output;
    /// `None` if some node never produced an output.
    pub time_to_output: Option<f64>,
    /// Normalized time until the network is quiescent (no more events). For the
    /// synchronous engine this is the number of rounds.
    pub time_to_quiescence: f64,
    /// Total number of delivery events processed.
    pub events: u64,
}

impl RunMetrics {
    /// Total messages across all classes (excluding acknowledgments).
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Messages of the given class.
    pub fn class_messages(&self, class: MessageClass) -> u64 {
        self.messages[class as usize]
    }

    /// Records one sent message of the given class.
    pub fn record_message(&mut self, class: MessageClass) {
        self.messages[class as usize] += 1;
    }

    /// Records `count` sent messages of the given class.
    pub fn record_messages(&mut self, class: MessageClass, count: u64) {
        self.messages[class as usize] += count;
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "time_to_output={:?} time_to_quiescence={:.2} msgs[alg]={} msgs[ctl]={} acks={}",
            self.time_to_output,
            self.time_to_quiescence,
            self.class_messages(MessageClass::Algorithm),
            self.class_messages(MessageClass::Control),
            self.acks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_classes() {
        let mut m = RunMetrics::default();
        m.record_message(MessageClass::Algorithm);
        m.record_message(MessageClass::Algorithm);
        m.record_message(MessageClass::Control);
        m.record_messages(MessageClass::Control, 4);
        assert_eq!(m.total_messages(), 7);
        assert_eq!(m.class_messages(MessageClass::Algorithm), 2);
        assert_eq!(m.class_messages(MessageClass::Control), 5);
    }

    #[test]
    fn display_is_nonempty() {
        let m = RunMetrics::default();
        assert!(!format!("{m}").is_empty());
    }
}
