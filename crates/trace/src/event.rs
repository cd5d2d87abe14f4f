//! The event model: what one round of the radio engine looks like as a
//! sequence of structured facts, plus the run-level header that makes a
//! recording self-describing.

use radio_graph::NodeId;
use radio_util::Json;

/// One structured fact about a run, in the order the engine's serial
/// round loop establishes it.
///
/// A round's events always form the sentence
/// `RoundStart (Transmit | Sleep | Depleted)* (Collision | Deliver)* RoundEnd`:
/// decide outcomes come out in node poll order (v1) / commit order (v2)
/// — identical by the v2 stream contract — and channel outcomes in
/// ascending receiver order, exactly the delivery sweep's order. Silent
/// decides are not recorded (no state change, dominant case); a
/// receiver that hears exactly one transmitter but is itself
/// transmitting under half-duplex, or is dead, produces no event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The round began (1-based, matching `RunResult::rounds`).
    RoundStart { round: u64 },
    /// `node` decided to transmit this round.
    Transmit { node: NodeId },
    /// `node` left the awake set (protocol-directed state transition).
    Sleep { node: NodeId },
    /// `node`'s battery depleted (or it fail-stopped); it is dead from
    /// this round on.
    Depleted { node: NodeId },
    /// `node` heard ≥ 2 transmitters — the slot carried no message.
    Collision { node: NodeId },
    /// `node` cleanly received `from`'s message; `woke` is true when
    /// the reception pulled a sleeping node back into the awake set. It
    /// is false for a node that was awake, and for a sleeping node whose
    /// protocol reports its radio off (`Protocol::radio_off`): that node
    /// takes the delivery but stays asleep, so it shows no `Sleep` next
    /// round.
    Deliver {
        node: NodeId,
        from: NodeId,
        woke: bool,
    },
    /// The round ended with these aggregates (awake counted *after*
    /// the round's sleeps and wakes, so a radio-off receiver that stayed
    /// asleep is not in it).
    RoundEnd {
        transmitters: u64,
        deliveries: u64,
        awake: u64,
    },
}

impl TraceEvent {
    /// Stable lower-case tag, used by the binary format's docs, the
    /// JSONL exporter, and divergence reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RoundStart { .. } => "round_start",
            TraceEvent::Transmit { .. } => "transmit",
            TraceEvent::Sleep { .. } => "sleep",
            TraceEvent::Depleted { .. } => "depleted",
            TraceEvent::Collision { .. } => "collision",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::RoundEnd { .. } => "round_end",
        }
    }

    /// The node the event is about, where there is one.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            TraceEvent::Transmit { node }
            | TraceEvent::Sleep { node }
            | TraceEvent::Depleted { node }
            | TraceEvent::Collision { node }
            | TraceEvent::Deliver { node, .. } => Some(*node),
            TraceEvent::RoundStart { .. } | TraceEvent::RoundEnd { .. } => None,
        }
    }

    /// The event as a flat JSON object (used by the JSONL exporter;
    /// `round` is stamped by the caller so every line is
    /// self-contained).
    pub fn to_json(&self, round: u64) -> Json {
        let mut pairs = vec![
            ("type", Json::str(self.kind())),
            ("round", Json::Num(round as f64)),
        ];
        match self {
            TraceEvent::RoundStart { .. } => {}
            TraceEvent::Transmit { node }
            | TraceEvent::Sleep { node }
            | TraceEvent::Depleted { node }
            | TraceEvent::Collision { node } => {
                pairs.push(("node", Json::Num(f64::from(*node))));
            }
            TraceEvent::Deliver { node, from, woke } => {
                pairs.push(("node", Json::Num(f64::from(*node))));
                pairs.push(("from", Json::Num(f64::from(*from))));
                pairs.push(("woke", Json::Bool(*woke)));
            }
            TraceEvent::RoundEnd {
                transmitters,
                deliveries,
                awake,
            } => {
                pairs.push(("transmitters", Json::Num(*transmitters as f64)));
                pairs.push(("deliveries", Json::Num(*deliveries as f64)));
                pairs.push(("awake", Json::Num(*awake as f64)));
            }
        }
        Json::obj(pairs)
    }
}

/// Run provenance, written once at the head of every recording. This is
/// the record the future campaign runner (ROADMAP item 4) will lean on:
/// enough to re-drive the run (`seed`, `engine`, `max_rounds`,
/// `half_duplex`, the caller's `topology` spec string) and enough to
/// distrust it (`code_version`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHeader {
    /// The run seed (v2: the stream-key root; v1: the seed the caller
    /// derived the run RNG from).
    pub seed: u64,
    /// Which determinism contract produced the events: `"v1"` or `"v2"`.
    pub engine: String,
    /// Caller-supplied topology spec, e.g. `"gnp_directed/n=65536/p=0.002"`.
    /// Free-form but expected to be regenerable: spec + seed = graph.
    pub topology: String,
    /// The engine's round cap.
    pub max_rounds: u64,
    /// Whether transmitters could hear their own slot.
    pub half_duplex: bool,
    /// `CARGO_PKG_VERSION` of the recording crate at capture time.
    pub code_version: String,
}

impl RunHeader {
    /// A header with the workspace's code version and default engine
    /// config; adjust fields directly or via [`RunHeader::with_config`].
    pub fn new(seed: u64, engine: impl Into<String>, topology: impl Into<String>) -> Self {
        RunHeader {
            seed,
            engine: engine.into(),
            topology: topology.into(),
            max_rounds: u64::MAX,
            half_duplex: false,
            code_version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }

    /// Record the engine config fields that change event semantics.
    pub fn with_config(mut self, max_rounds: u64, half_duplex: bool) -> Self {
        self.max_rounds = max_rounds;
        self.half_duplex = half_duplex;
        self
    }

    /// The header as a JSON object (first line of a JSONL export).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", Json::str("header")),
            ("seed", Json::Num(self.seed as f64)),
            ("engine", Json::str(self.engine.clone())),
            ("topology", Json::str(self.topology.clone())),
            ("max_rounds", Json::Num(self.max_rounds as f64)),
            ("half_duplex", Json::Bool(self.half_duplex)),
            ("code_version", Json::str(self.code_version.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_nodes() {
        let d = TraceEvent::Deliver {
            node: 7,
            from: 3,
            woke: true,
        };
        assert_eq!(d.kind(), "deliver");
        assert_eq!(d.node(), Some(7));
        assert_eq!(TraceEvent::RoundStart { round: 1 }.node(), None);
        assert_eq!(
            TraceEvent::RoundEnd {
                transmitters: 0,
                deliveries: 0,
                awake: 0
            }
            .kind(),
            "round_end"
        );
    }

    #[test]
    fn event_json_is_self_contained() {
        let j = TraceEvent::Deliver {
            node: 7,
            from: 3,
            woke: false,
        }
        .to_json(12);
        assert_eq!(j.get("type").and_then(Json::as_str), Some("deliver"));
        assert_eq!(j.get("round").and_then(Json::as_f64), Some(12.0));
        assert_eq!(j.get("from").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("woke"), Some(&Json::Bool(false)));
    }

    #[test]
    fn header_records_config_and_version() {
        let h = RunHeader::new(42, "v2", "gnp/n=64/p=0.1").with_config(100, true);
        assert_eq!(h.max_rounds, 100);
        assert!(h.half_duplex);
        assert_eq!(h.code_version, env!("CARGO_PKG_VERSION"));
        let j = h.to_json();
        assert_eq!(j.get("seed").and_then(Json::as_f64), Some(42.0));
        assert_eq!(j.get("engine").and_then(Json::as_str), Some("v2"));
    }
}
