//! The token-ring protocol of the distributed NASH algorithm.
//!
//! The paper's pseudocode passes `(norm, s)` between users. Here users
//! observe each other only through the ring's load board (the paper's
//! "inspect the run queue" remark), so the token carries only control
//! state: the round, the accumulated norm and certificate, the
//! termination flag, and a repair *epoch*.

use lb_game::Certificate;

/// Cross-node causal trace context, propagated inside
/// [`crate::net::VirtualNet`] envelopes (schema v3 `xspan.*` events).
///
/// Wire format: senders emit `xspan.send {t_us, trace, span, parent,
/// from, to}` per [`crate::net::VirtualNet::send_traced`] call;
/// receivers emit `xspan.recv {t_us, trace, span, from, to}` per
/// delivery. A duplicated message delivers the *same* `span` id twice
/// (duplication is a network artifact, not a new causal hop), and a
/// dropped message leaves an `xspan.send` with no matching
/// `xspan.recv` — which is exactly how the staleness-attribution
/// report charges loss to links.
///
/// Ids must be derived from *run state* (per-node monotone counters
/// namespaced by node id), never from process-wide atomics like
/// [`lb_telemetry::span::Span`]'s — process atomics are not
/// deterministic across runs, and trace ids must replay bit-identically
/// for a given seed. Id 0 is reserved (it means "no trace" / "no
/// parent").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The causal chain this message belongs to (a best-reply episode:
    /// the broadcast, its retries, acks, syncs, and the certification
    /// it unblocks all share one trace id). Non-zero.
    pub trace: u64,
    /// This hop's span id. Non-zero, unique per *send decision* — both
    /// copies of a duplicated message share it.
    pub span: u64,
    /// Span id of the hop that caused this one (0 = trace root).
    pub parent: u64,
}

impl TraceContext {
    /// A root hop of trace `trace` with span id `span`.
    pub fn root(trace: u64, span: u64) -> Self {
        Self {
            trace,
            span,
            parent: 0,
        }
    }

    /// A child hop caused by receiving `self` (same trace, new span).
    pub fn child(self, span: u64) -> Self {
        Self {
            trace: self.trace,
            span,
            parent: self.span,
        }
    }
}

/// The control token circulating the user ring.
#[derive(Debug, Clone)]
pub struct Token {
    /// Current round (sweep) number, starting at 0.
    pub round: u32,
    /// Repair epoch the token belongs to: bumped each time the token is
    /// regenerated after a loss or a capacity change.
    pub epoch: u32,
    /// Norm accumulated so far in this round: partial
    /// `Σ_j |D_j^{(l)} − D_j^{(l−1)}|`.
    pub norm_acc: f64,
    /// Response times accumulated so far in this round: partial
    /// `Σ_j D_j` (normalizes the norm for the scale-invariant rules).
    pub d_acc: f64,
    /// Regret certificate accumulated so far in this round: the
    /// max-reduction of every visited user's `(r_j, D_j)`, measured on
    /// the board it saw before its update.
    pub certificate: Certificate,
    /// Set by the ring tail when the algorithm must stop (converged or
    /// out of budget); one final lap delivers it to everyone.
    pub terminate: Termination,
}

/// Why (or whether) the ring is shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Keep iterating.
    Continue,
    /// Converged: the last completed round's norm met the tolerance.
    Converged,
    /// The round budget was exhausted before convergence.
    Exhausted,
}

impl Token {
    /// A fresh token starting round 0 in epoch 0.
    pub fn initial() -> Self {
        Self::regenerated(0, 0)
    }

    /// A token regenerated after a loss or a capacity change: it starts
    /// round `round` afresh under the new `epoch`.
    pub fn regenerated(round: u32, epoch: u32) -> Self {
        Self {
            round,
            epoch,
            norm_acc: 0.0,
            d_acc: 0.0,
            certificate: Certificate::zero(),
            terminate: Termination::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_token_is_clean() {
        let t = Token::initial();
        assert_eq!(t.round, 0);
        assert_eq!(t.epoch, 0);
        assert_eq!(t.norm_acc, 0.0);
        assert_eq!(t.d_acc, 0.0);
        assert_eq!(t.certificate, Certificate::zero());
        assert_eq!(t.terminate, Termination::Continue);
    }

    #[test]
    fn regenerated_token_restarts_the_round_in_a_new_epoch() {
        let t = Token::regenerated(7, 2);
        assert_eq!(t.round, 7);
        assert_eq!(t.epoch, 2);
        assert_eq!(t.norm_acc, 0.0);
        assert_eq!(t.d_acc, 0.0);
        assert_eq!(t.certificate, Certificate::zero());
        assert_eq!(t.terminate, Termination::Continue);
    }
}
