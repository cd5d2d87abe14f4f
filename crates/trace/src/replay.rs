//! Replay verification: re-drive a recorded run through the engine and
//! check the fresh event stream against the recording, bit for bit.
//!
//! The verifier is itself a [`TraceSink`], which is what keeps this
//! crate independent of the engine: the caller reconstructs the run's
//! inputs (graph from the header's topology spec + seed, protocol,
//! config) and hands the engine a [`ReplayVerifier`] where a recording
//! sink would go. Every emitted event is compared against the expected
//! stream in order; the first mismatch is captured as a [`Divergence`]
//! — round, position, expected vs got — and comparison stops (one
//! divergence makes every later comparison meaningless, as the streams
//! have lost alignment).
//!
//! This turns "v1 vs v2 disagree" or "1t vs 8t disagree" from a diff
//! of final metrics into *the first round and node where the histories
//! part ways*.

use crate::binary::Recording;
use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// The first point where a replayed stream left the recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Round of the divergent position (from the live stream's last
    /// `RoundStart`, so it is meaningful even when the recording ran
    /// out of rounds).
    pub round: u64,
    /// Event index within that round (0 = the `RoundStart` itself).
    pub index: usize,
    /// What the recording says happens here (`None`: recording ended).
    pub expected: Option<TraceEvent>,
    /// What the replayed run emitted (`None`: the run ended while the
    /// recording still had events — set by [`ReplayVerifier::finish`]).
    pub got: Option<TraceEvent>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let node = self
            .got
            .and_then(|e| e.node())
            .or_else(|| self.expected.and_then(|e| e.node()));
        write!(
            f,
            "first divergence at round {}, event #{}",
            self.round, self.index
        )?;
        if let Some(node) = node {
            write!(f, ", node {node}")?;
        }
        match (&self.expected, &self.got) {
            (Some(e), Some(g)) => write!(f, ": expected {e:?}, got {g:?}"),
            (Some(e), None) => write!(f, ": expected {e:?}, but the run ended"),
            (None, Some(g)) => write!(f, ": recording ended, but the run emitted {g:?}"),
            (None, None) => Ok(()),
        }
    }
}

/// A [`TraceSink`] that checks the live stream against a [`Recording`].
#[derive(Debug)]
pub struct ReplayVerifier<'r> {
    rec: &'r Recording,
    round_idx: usize,
    event_idx: usize,
    live_round: u64,
    live_index: usize,
    verified: u64,
    divergence: Option<Divergence>,
}

impl<'r> ReplayVerifier<'r> {
    /// Verify against `rec`, starting at its first round.
    pub fn new(rec: &'r Recording) -> Self {
        ReplayVerifier {
            rec,
            round_idx: 0,
            event_idx: 0,
            live_round: 0,
            live_index: 0,
            verified: 0,
            divergence: None,
        }
    }

    /// The divergence found so far, if any.
    pub fn divergence(&self) -> Option<Divergence> {
        self.divergence
    }

    fn expected(&self) -> Option<TraceEvent> {
        self.rec
            .rounds
            .get(self.round_idx)
            .and_then(|r| r.events.get(self.event_idx))
            .copied()
    }

    /// Finish verification after the replayed run returned: a recording
    /// with events left over is a divergence too (the replay ended
    /// early). Returns the number of verified events on success.
    pub fn finish(self) -> Result<u64, Divergence> {
        if let Some(d) = self.divergence {
            return Err(d);
        }
        if let Some(expected) = self.expected() {
            let round = self
                .rec
                .rounds
                .get(self.round_idx)
                .map_or(self.live_round, |r| r.round);
            return Err(Divergence {
                round,
                index: self.event_idx,
                expected: Some(expected),
                got: None,
            });
        }
        Ok(self.verified)
    }
}

impl TraceSink for ReplayVerifier<'_> {
    const ACTIVE: bool = true;

    fn emit(&mut self, ev: TraceEvent) {
        if self.divergence.is_some() {
            return;
        }
        if let TraceEvent::RoundStart { round } = ev {
            self.live_round = round;
            self.live_index = 0;
        }
        let expected = self.expected();
        if expected == Some(ev) {
            self.verified += 1;
            self.event_idx += 1;
            if self
                .rec
                .rounds
                .get(self.round_idx)
                .is_some_and(|r| self.event_idx >= r.events.len())
            {
                self.round_idx += 1;
                self.event_idx = 0;
            }
            self.live_index += 1;
            return;
        }
        self.divergence = Some(Divergence {
            round: self.live_round,
            index: self.live_index,
            expected,
            got: Some(ev),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::RoundEvents;
    use crate::event::RunHeader;

    fn rec(rounds: Vec<Vec<TraceEvent>>) -> Recording {
        Recording {
            header: RunHeader::new(1, "v2", "test"),
            rounds: rounds
                .into_iter()
                .map(|events| RoundEvents {
                    round: match events[0] {
                        TraceEvent::RoundStart { round } => round,
                        _ => panic!("test rounds start with RoundStart"),
                    },
                    events,
                })
                .collect(),
            footer: None,
        }
    }

    fn round(r: u64, mid: Vec<TraceEvent>) -> Vec<TraceEvent> {
        let mut events = vec![TraceEvent::RoundStart { round: r }];
        events.extend(mid);
        events.push(TraceEvent::RoundEnd {
            transmitters: 0,
            deliveries: 0,
            awake: 2,
        });
        events
    }

    #[test]
    fn identical_stream_verifies() {
        let recording = rec(vec![
            round(1, vec![TraceEvent::Transmit { node: 0 }]),
            round(2, vec![TraceEvent::Sleep { node: 1 }]),
        ]);
        let mut v = ReplayVerifier::new(&recording);
        for r in &recording.rounds {
            for ev in &r.events {
                v.emit(*ev);
            }
        }
        assert_eq!(v.finish(), Ok(6));
    }

    #[test]
    fn first_mismatch_is_pinned_with_round_and_node() {
        let recording = rec(vec![round(1, vec![TraceEvent::Transmit { node: 0 }])]);
        let mut v = ReplayVerifier::new(&recording);
        v.emit(TraceEvent::RoundStart { round: 1 });
        v.emit(TraceEvent::Transmit { node: 7 }); // wrong node
        v.emit(TraceEvent::Transmit { node: 0 }); // ignored after divergence
        let d = v.finish().unwrap_err();
        assert_eq!(d.round, 1);
        assert_eq!(d.index, 1);
        assert_eq!(d.expected, Some(TraceEvent::Transmit { node: 0 }));
        assert_eq!(d.got, Some(TraceEvent::Transmit { node: 7 }));
        let msg = d.to_string();
        assert!(msg.contains("round 1") && msg.contains("node 7"), "{msg}");
    }

    #[test]
    fn short_replay_is_a_divergence() {
        let recording = rec(vec![round(1, vec![]), round(2, vec![])]);
        let mut v = ReplayVerifier::new(&recording);
        for ev in &recording.rounds[0].events {
            v.emit(*ev);
        }
        let d = v.finish().unwrap_err();
        assert_eq!(d.round, 2);
        assert_eq!(d.got, None);
        assert_eq!(d.expected, Some(TraceEvent::RoundStart { round: 2 }));
    }

    #[test]
    fn long_replay_is_a_divergence() {
        let recording = rec(vec![round(1, vec![])]);
        let mut v = ReplayVerifier::new(&recording);
        for ev in &recording.rounds[0].events {
            v.emit(*ev);
        }
        v.emit(TraceEvent::RoundStart { round: 2 });
        let d = v.finish().unwrap_err();
        assert_eq!(d.round, 2);
        assert_eq!(d.expected, None);
        assert_eq!(d.got, Some(TraceEvent::RoundStart { round: 2 }));
    }
}
