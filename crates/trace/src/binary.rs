//! The `.rtrc` on-disk format: a compact length-prefixed binary
//! encoding of a run's event stream, and the in-memory [`Recording`]
//! the reader produces.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic "RTRC" · version u16-LE
//! header:  seed · engine str · topology str · max_rounds ·
//!          half_duplex u8 · code_version str      (str = len · utf8)
//! blocks:  (payload_len > 0 · payload)*           one block per round
//! end:     payload_len = 0
//! footer:  rounds · completed u8 · total_events
//! ```
//!
//! Each block's payload is the round's events back-to-back, each a tag
//! byte plus varint fields (see [`encode_event`]). The length prefix is
//! what makes the format *navigable*: a reader can skip to round `k`
//! without decoding the rounds before it, which keeps ring retention,
//! diff alignment, and future visualization seeking cheap. Every
//! executed round produces a block (it always contains at least
//! `RoundStart` + `RoundEnd`), so a zero length is unambiguous as the
//! end marker, and the footer cross-checks truncation: a file that dies
//! mid-write fails loudly, not by silently looking like a shorter run.

use crate::event::{RunHeader, TraceEvent};
use radio_graph::NodeId;

/// Format version written after the magic; readers reject anything else.
pub const FORMAT_VERSION: u16 = 1;
/// File magic: "RTRC" (Radio TRaCe).
pub const MAGIC: &[u8; 4] = b"RTRC";

const TAG_ROUND_START: u8 = 0;
const TAG_TRANSMIT: u8 = 1;
const TAG_SLEEP: u8 = 2;
const TAG_DEPLETED: u8 = 3;
const TAG_COLLISION: u8 = 4;
const TAG_DELIVER: u8 = 5;
const TAG_ROUND_END: u8 = 6;

/// Append `x` as a LEB128 varint (7 bits per byte, high bit = more).
pub fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint at `*pos`, advancing it. A value wider than 64
/// bits is an error: an 11th byte, or a 10th byte carrying more than the
/// top bit.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| format!("truncated varint at byte {pos}", pos = *pos))?;
        *pos += 1;
        let payload = u64::from(byte & 0x7f);
        if shift >= 64 || (payload << shift) >> shift != payload {
            return Err(format!("varint overflow at byte {pos}", pos = *pos));
        }
        x |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let len = read_varint(bytes, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| format!("truncated string at byte {pos}", pos = *pos))?;
    let s = std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?;
    *pos = end;
    Ok(s.to_string())
}

/// Encode the file preamble: magic, version, header.
pub fn encode_header(header: &RunHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    write_varint(&mut out, header.seed);
    write_str(&mut out, &header.engine);
    write_str(&mut out, &header.topology);
    write_varint(&mut out, header.max_rounds);
    out.push(u8::from(header.half_duplex));
    write_str(&mut out, &header.code_version);
    out
}

/// Append one event (tag byte + varint fields).
pub fn encode_event(out: &mut Vec<u8>, ev: &TraceEvent) {
    match *ev {
        TraceEvent::RoundStart { round } => {
            out.push(TAG_ROUND_START);
            write_varint(out, round);
        }
        TraceEvent::Transmit { node } => {
            out.push(TAG_TRANSMIT);
            write_varint(out, u64::from(node));
        }
        TraceEvent::Sleep { node } => {
            out.push(TAG_SLEEP);
            write_varint(out, u64::from(node));
        }
        TraceEvent::Depleted { node } => {
            out.push(TAG_DEPLETED);
            write_varint(out, u64::from(node));
        }
        TraceEvent::Collision { node } => {
            out.push(TAG_COLLISION);
            write_varint(out, u64::from(node));
        }
        TraceEvent::Deliver { node, from, woke } => {
            out.push(TAG_DELIVER);
            write_varint(out, u64::from(node));
            write_varint(out, u64::from(from));
            out.push(u8::from(woke));
        }
        TraceEvent::RoundEnd {
            transmitters,
            deliveries,
            awake,
        } => {
            out.push(TAG_ROUND_END);
            write_varint(out, transmitters);
            write_varint(out, deliveries);
            write_varint(out, awake);
        }
    }
}

fn read_node(bytes: &[u8], pos: &mut usize) -> Result<NodeId, String> {
    let x = read_varint(bytes, pos)?;
    NodeId::try_from(x).map_err(|_| format!("node id {x} exceeds u32"))
}

/// Decode one event at `*pos`, advancing it.
pub fn decode_event(bytes: &[u8], pos: &mut usize) -> Result<TraceEvent, String> {
    let tag = *bytes
        .get(*pos)
        .ok_or_else(|| format!("truncated event at byte {pos}", pos = *pos))?;
    *pos += 1;
    Ok(match tag {
        TAG_ROUND_START => TraceEvent::RoundStart {
            round: read_varint(bytes, pos)?,
        },
        TAG_TRANSMIT => TraceEvent::Transmit {
            node: read_node(bytes, pos)?,
        },
        TAG_SLEEP => TraceEvent::Sleep {
            node: read_node(bytes, pos)?,
        },
        TAG_DEPLETED => TraceEvent::Depleted {
            node: read_node(bytes, pos)?,
        },
        TAG_COLLISION => TraceEvent::Collision {
            node: read_node(bytes, pos)?,
        },
        TAG_DELIVER => {
            let node = read_node(bytes, pos)?;
            let from = read_node(bytes, pos)?;
            let woke = *bytes
                .get(*pos)
                .ok_or_else(|| format!("truncated deliver at byte {pos}", pos = *pos))?;
            *pos += 1;
            TraceEvent::Deliver {
                node,
                from,
                woke: woke != 0,
            }
        }
        TAG_ROUND_END => TraceEvent::RoundEnd {
            transmitters: read_varint(bytes, pos)?,
            deliveries: read_varint(bytes, pos)?,
            awake: read_varint(bytes, pos)?,
        },
        other => return Err(format!("unknown event tag {other} at byte {}", *pos - 1)),
    })
}

/// Run totals written after the end marker; the reader uses them to
/// detect truncated files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFooter {
    /// Rounds executed (must equal the number of blocks).
    pub rounds: u64,
    /// Whether the protocol reported completion.
    pub completed: bool,
    /// Total events across all blocks (must match).
    pub events: u64,
}

/// Encode the end marker + footer.
pub fn encode_footer(footer: &RunFooter) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    write_varint(&mut out, 0); // end-of-blocks marker
    write_varint(&mut out, footer.rounds);
    out.push(u8::from(footer.completed));
    write_varint(&mut out, footer.events);
    out
}

/// One round's decoded events, in emission order (starts with
/// `RoundStart`, ends with `RoundEnd`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundEvents {
    /// The 1-based round number (from the block's `RoundStart`).
    pub round: u64,
    /// All events of the round, `RoundStart`/`RoundEnd` included.
    pub events: Vec<TraceEvent>,
}

/// A fully decoded trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    /// Run provenance.
    pub header: RunHeader,
    /// One entry per executed round, in order.
    pub rounds: Vec<RoundEvents>,
    /// Totals; `None` for a truncated file read with
    /// [`Recording::from_bytes_lossy`].
    pub footer: Option<RunFooter>,
}

impl Recording {
    /// Total event count across all rounds.
    pub fn event_count(&self) -> u64 {
        self.rounds.iter().map(|r| r.events.len() as u64).sum()
    }

    /// Encode back to the `.rtrc` byte format (exact inverse of
    /// [`Recording::from_bytes`]; a missing footer is synthesized from
    /// the rounds with `completed = false`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = encode_header(&self.header);
        for round in &self.rounds {
            let mut payload = Vec::new();
            for ev in &round.events {
                encode_event(&mut payload, ev);
            }
            write_varint(&mut out, payload.len() as u64);
            out.extend_from_slice(&payload);
        }
        let footer = self.footer.unwrap_or(RunFooter {
            rounds: self.rounds.len() as u64,
            completed: false,
            events: self.event_count(),
        });
        out.extend_from_slice(&encode_footer(&footer));
        out
    }

    /// Decode a complete `.rtrc` file, validating the footer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, String> {
        let rec = Self::decode(bytes, true)?;
        Ok(rec)
    }

    /// Decode as much of a (possibly truncated) file as is intact —
    /// the crash-forensics path: a run that died mid-write still yields
    /// every fully flushed round.
    pub fn from_bytes_lossy(bytes: &[u8]) -> Result<Recording, String> {
        Self::decode(bytes, false)
    }

    /// Read and decode a file.
    pub fn read_from(path: impl AsRef<std::path::Path>) -> Result<Recording, String> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| format!("cannot read {path}: {e}", path = path.display()))?;
        Self::from_bytes(&bytes).map_err(|e| format!("{path}: {e}", path = path.display()))
    }

    fn decode(bytes: &[u8], strict: bool) -> Result<Recording, String> {
        if bytes.len() < 6 || &bytes[..4] != MAGIC {
            return Err("not a trace file (bad magic; expected \"RTRC\")".to_string());
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported format version {version} (reader supports {FORMAT_VERSION})"
            ));
        }
        let mut pos = 6usize;
        let seed = read_varint(bytes, &mut pos)?;
        let engine = read_str(bytes, &mut pos)?;
        let topology = read_str(bytes, &mut pos)?;
        let max_rounds = read_varint(bytes, &mut pos)?;
        let half_duplex = *bytes.get(pos).ok_or("truncated header (half_duplex)")? != 0;
        pos += 1;
        let code_version = read_str(bytes, &mut pos)?;
        let header = RunHeader {
            seed,
            engine,
            topology,
            max_rounds,
            half_duplex,
            code_version,
        };

        let mut rounds = Vec::new();
        let mut events_total = 0u64;
        let footer = loop {
            let block_start = pos;
            let len = match read_varint(bytes, &mut pos) {
                Ok(l) => l as usize,
                Err(_) if !strict => {
                    pos = block_start;
                    break None;
                }
                Err(e) => return Err(e),
            };
            if len == 0 {
                // End marker: the footer follows.
                let rounds_f = read_varint(bytes, &mut pos)?;
                let completed = *bytes.get(pos).ok_or("truncated footer (completed)")? != 0;
                pos += 1;
                let events_f = read_varint(bytes, &mut pos)?;
                break Some(RunFooter {
                    rounds: rounds_f,
                    completed,
                    events: events_f,
                });
            }
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| format!("truncated block at byte {block_start}"));
            let end = match end {
                Ok(e) => e,
                Err(_) if !strict => {
                    pos = block_start;
                    break None;
                }
                Err(e) => return Err(e),
            };
            let mut events = Vec::new();
            while pos < end {
                events.push(decode_event(bytes, &mut pos)?);
            }
            if pos != end {
                return Err(format!("event overran its block at byte {pos}"));
            }
            let round = match events.first() {
                Some(TraceEvent::RoundStart { round }) => *round,
                other => {
                    return Err(format!(
                        "block at byte {block_start} does not begin with RoundStart \
                         (got {other:?})"
                    ))
                }
            };
            events_total += events.len() as u64;
            rounds.push(RoundEvents { round, events });
        };

        if strict {
            let footer = footer.ok_or("missing footer")?;
            if pos != bytes.len() {
                return Err(format!("trailing bytes after footer at {pos}"));
            }
            if footer.rounds != rounds.len() as u64 {
                return Err(format!(
                    "footer claims {} rounds, file has {} (truncated?)",
                    footer.rounds,
                    rounds.len()
                ));
            }
            if footer.events != events_total {
                return Err(format!(
                    "footer claims {} events, file has {events_total}",
                    footer.events
                ));
            }
        }
        Ok(Recording {
            header,
            rounds,
            footer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> RunHeader {
        RunHeader::new(0xDEAD_BEEF, "v2", "gnp/n=16/p=0.25").with_config(50, true)
    }

    fn sample_events() -> Vec<Vec<TraceEvent>> {
        vec![
            vec![
                TraceEvent::RoundStart { round: 1 },
                TraceEvent::Transmit { node: 0 },
                TraceEvent::Deliver {
                    node: 3,
                    from: 0,
                    woke: false,
                },
                TraceEvent::RoundEnd {
                    transmitters: 1,
                    deliveries: 1,
                    awake: 16,
                },
            ],
            vec![
                TraceEvent::RoundStart { round: 2 },
                TraceEvent::Transmit { node: 0 },
                TraceEvent::Transmit { node: 3 },
                TraceEvent::Collision { node: 5 },
                TraceEvent::Sleep { node: 0 },
                TraceEvent::Depleted { node: 9 },
                TraceEvent::RoundEnd {
                    transmitters: 2,
                    deliveries: 0,
                    awake: 14,
                },
            ],
        ]
    }

    fn encode_all(header: &RunHeader, rounds: &[Vec<TraceEvent>], completed: bool) -> Vec<u8> {
        let mut out = encode_header(header);
        let mut events = 0u64;
        for round in rounds {
            let mut payload = Vec::new();
            for ev in round {
                encode_event(&mut payload, ev);
            }
            write_varint(&mut out, payload.len() as u64);
            out.extend_from_slice(&payload);
            events += round.len() as u64;
        }
        out.extend_from_slice(&encode_footer(&RunFooter {
            rounds: rounds.len() as u64,
            completed,
            events,
        }));
        out
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(x));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert!(read_varint(&[0x80], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_varint(&[0x80; 11], &mut pos).is_err());
        // u64::MAX is nine 0xff bytes and a final 0x01; a final 0x02
        // would be bit 64, which used to be dropped silently.
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        let mut pos = 0;
        assert_eq!(read_varint(&max, &mut pos), Ok(u64::MAX));
        let mut wide = vec![0xffu8; 9];
        wide.push(0x02);
        let mut pos = 0;
        let err = read_varint(&wide, &mut pos).unwrap_err();
        assert!(err.contains("varint overflow"), "{err}");
        let mut eleven = vec![0x80u8; 10];
        eleven.push(0x00);
        let mut pos = 0;
        let err = read_varint(&eleven, &mut pos).unwrap_err();
        assert!(err.contains("varint overflow"), "{err}");
    }

    #[test]
    fn recording_round_trips() {
        let header = sample_header();
        let rounds = sample_events();
        let bytes = encode_all(&header, &rounds, true);
        let rec = Recording::from_bytes(&bytes).expect("decode");
        assert_eq!(rec.header, header);
        assert_eq!(rec.rounds.len(), 2);
        assert_eq!(rec.rounds[0].round, 1);
        assert_eq!(rec.rounds[1].events, rounds[1]);
        assert_eq!(
            rec.footer,
            Some(RunFooter {
                rounds: 2,
                completed: true,
                events: 11,
            })
        );
        assert_eq!(rec.event_count(), 11);
    }

    #[test]
    fn strict_read_rejects_truncation_lossy_recovers_whole_rounds() {
        let bytes = encode_all(&sample_header(), &sample_events(), false);
        // Chop inside the second block.
        let cut = bytes.len() - 12;
        assert!(Recording::from_bytes(&bytes[..cut]).is_err());
        let rec = Recording::from_bytes_lossy(&bytes[..cut]).expect("lossy");
        assert_eq!(rec.rounds.len(), 1, "only the intact round survives");
        assert!(rec.footer.is_none());
    }

    #[test]
    fn bad_magic_and_version_fail() {
        assert!(Recording::from_bytes(b"NOPE\x01\x00").is_err());
        let mut bytes = encode_all(&sample_header(), &sample_events(), true);
        bytes[4] = 99;
        let err = Recording::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn footer_mismatch_fails_strict() {
        let mut bytes = encode_header(&sample_header());
        bytes.extend_from_slice(&encode_footer(&RunFooter {
            rounds: 3, // claims rounds the file does not contain
            completed: false,
            events: 0,
        }));
        let err = Recording::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("rounds"), "{err}");
    }
}
