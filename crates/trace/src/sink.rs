//! The engine-facing hook: [`TraceSink`] and its three sinks.
//!
//! Same zero-cost contract as the engine's energy hook: the engine's
//! round loops are generic over `S: TraceSink` and gate every emission
//! site on `S::ACTIVE`, so with [`NullSink`] the compiler deletes the
//! sites entirely — the plain path is today's codegen, not today's
//! codegen plus dead branches. A sink that may be absent is an
//! `Option<K>`: the engine asks [`TraceSink::records`] once per run and
//! runs the [`NullSink`] loop when it is `None`, so a trial that records
//! only sometimes is one engine call either way.
//!
//! When a sink *is* active, `emit` must stay cheap: the engine calls it
//! from the serial side of the round loop, so every nanosecond is on
//! the critical path. Both real sinks therefore buffer the raw [`TraceEvent`] (a 16-byte `Copy` value)
//! per round and do their heavier work — binary encoding, block
//! flushing, ring rotation — once per `RoundEnd`.

use crate::binary::{
    encode_event, encode_footer, encode_header, write_varint, RoundEvents, RunFooter,
};
use crate::event::{RunHeader, TraceEvent};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;

/// Receives the engine's event stream. Implementations must not carry
/// any randomness or influence control flow — the zero-interference
/// property tests will catch a sink that does.
pub trait TraceSink {
    /// `false` compiles every emission site out of the engine.
    const ACTIVE: bool;

    /// Whether this sink records anything on this run — checked once per
    /// run, before the first round. `false` makes the engine run its
    /// untraced loop, as for [`NullSink`]. Defaults to [`Self::ACTIVE`].
    #[inline(always)]
    fn records(&self) -> bool {
        Self::ACTIVE
    }

    /// One event, in deterministic serial order.
    fn emit(&mut self, ev: TraceEvent);
}

/// A borrowed sink is a sink: the engine's run builder attaches one by
/// `&mut`, and the caller keeps it to read or finish afterwards.
impl<K: TraceSink> TraceSink for &mut K {
    const ACTIVE: bool = K::ACTIVE;

    #[inline(always)]
    fn records(&self) -> bool {
        K::records(self)
    }

    #[inline(always)]
    fn emit(&mut self, ev: TraceEvent) {
        K::emit(self, ev);
    }
}

/// A sink that may be absent: `Some` records through the inner sink,
/// `None` records nothing and runs the engine's untraced loop — so a
/// trial whose recording a cap or an I/O failure skipped is the same
/// engine call as one that records.
impl<K: TraceSink> TraceSink for Option<K> {
    const ACTIVE: bool = K::ACTIVE;

    #[inline(always)]
    fn records(&self) -> bool {
        self.as_ref().is_some_and(K::records)
    }

    #[inline(always)]
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self {
            sink.emit(ev);
        }
    }
}

/// The do-nothing sink: the default for every untraced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn emit(&mut self, _ev: TraceEvent) {}
}

/// Streams the `.rtrc` binary format into any [`io::Write`].
///
/// Events buffer in a reused `Vec<TraceEvent>` until `RoundEnd`, then
/// the round encodes and flushes as one length-prefixed block — so a
/// crash loses at most the in-flight round, and the hot `emit` path is
/// a plain vector push. I/O errors cannot surface mid-run (the engine
/// hook is infallible by design), so the sink parks the first error
/// and [`RecordingSink::finish`] reports it; a recording is only
/// trustworthy if `finish` returned `Ok`.
#[derive(Debug)]
pub struct RecordingSink<W: io::Write> {
    w: W,
    round_buf: Vec<TraceEvent>,
    encode_buf: Vec<u8>,
    rounds: u64,
    events: u64,
    err: Option<io::Error>,
}

impl RecordingSink<BufWriter<File>> {
    /// Create `path` (and missing parent directories) and write the
    /// header. The buffered file form is what the sweep/e18 knobs use.
    pub fn create(path: impl AsRef<Path>, header: &RunHeader) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Self::new(BufWriter::new(File::create(path)?), header)
    }
}

impl<W: io::Write> RecordingSink<W> {
    /// Wrap a writer and emit the file preamble immediately.
    pub fn new(mut w: W, header: &RunHeader) -> io::Result<Self> {
        w.write_all(&encode_header(header))?;
        Ok(RecordingSink {
            w,
            round_buf: Vec::with_capacity(256),
            encode_buf: Vec::with_capacity(1024),
            rounds: 0,
            events: 0,
            err: None,
        })
    }

    /// Rounds flushed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Events recorded so far (flushed rounds only).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Write the end marker + footer, flush, and surface any I/O error
    /// parked during the run. `completed` is the protocol's completion
    /// flag from the `RunResult`.
    pub fn finish(mut self, completed: bool) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        debug_assert!(
            self.round_buf.is_empty(),
            "finish() called mid-round: {} unflushed events",
            self.round_buf.len()
        );
        self.w.write_all(&encode_footer(&RunFooter {
            rounds: self.rounds,
            completed,
            events: self.events,
        }))?;
        self.w.flush()
    }

    fn flush_round(&mut self) {
        self.encode_buf.clear();
        for ev in &self.round_buf {
            encode_event(&mut self.encode_buf, ev);
        }
        self.events += self.round_buf.len() as u64;
        self.rounds += 1;
        self.round_buf.clear();
        let mut prefix = Vec::with_capacity(10);
        write_varint(&mut prefix, self.encode_buf.len() as u64);
        let res = self
            .w
            .write_all(&prefix)
            .and_then(|()| self.w.write_all(&self.encode_buf));
        if let (Err(e), None) = (res, &self.err) {
            self.err = Some(e);
        }
    }
}

impl<W: io::Write> TraceSink for RecordingSink<W> {
    const ACTIVE: bool = true;

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        self.round_buf.push(ev);
        if matches!(ev, TraceEvent::RoundEnd { .. }) {
            self.flush_round();
        }
    }
}

/// In-memory sink retaining the last `cap` rounds — the capped-retention
/// form the sweep API offers, and the flight-recorder shape for "keep
/// the tail of a huge run": memory is bounded by `cap` × events-per-round
/// no matter how long the run is. Evicted rounds recycle their event
/// vectors, so the steady state allocates only when a round out-sizes
/// every buffer seen before.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    rounds: VecDeque<RoundEvents>,
    cur: Vec<TraceEvent>,
    cur_round: u64,
    spare: Vec<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// Retain at most `cap` (≥ 1) most-recent rounds.
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            rounds: VecDeque::new(),
            cur: Vec::new(),
            cur_round: 0,
            spare: Vec::new(),
            dropped: 0,
        }
    }

    /// The retained rounds, oldest first.
    pub fn rounds(&self) -> impl Iterator<Item = &RoundEvents> {
        self.rounds.iter()
    }

    /// Rounds evicted to stay under the cap.
    pub fn dropped_rounds(&self) -> u64 {
        self.dropped
    }

    /// Package the retained window as a [`Recording`] (footer present,
    /// `rounds`/`events` describing the *window*, not the full run).
    ///
    /// [`Recording`]: crate::binary::Recording
    pub fn into_recording(self, header: RunHeader, completed: bool) -> crate::binary::Recording {
        let rounds: Vec<RoundEvents> = self.rounds.into();
        let events = rounds.iter().map(|r| r.events.len() as u64).sum();
        crate::binary::Recording {
            header,
            footer: Some(RunFooter {
                rounds: rounds.len() as u64,
                completed,
                events,
            }),
            rounds,
        }
    }
}

impl TraceSink for RingSink {
    const ACTIVE: bool = true;

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if let TraceEvent::RoundStart { round } = ev {
            self.cur_round = round;
        }
        self.cur.push(ev);
        if matches!(ev, TraceEvent::RoundEnd { .. }) {
            let mut events = std::mem::take(&mut self.spare);
            events.clear();
            events.extend_from_slice(&self.cur);
            self.cur.clear();
            self.rounds.push_back(RoundEvents {
                round: self.cur_round,
                events,
            });
            if self.rounds.len() > self.cap {
                let evicted = self.rounds.pop_front().expect("len > cap ≥ 1");
                self.spare = evicted.events;
                self.dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::Recording;

    fn header() -> RunHeader {
        RunHeader::new(1, "v2", "test").with_config(10, false)
    }

    fn drive<S: TraceSink>(sink: &mut S, rounds: u64) {
        for r in 1..=rounds {
            sink.emit(TraceEvent::RoundStart { round: r });
            sink.emit(TraceEvent::Transmit { node: r as u32 });
            sink.emit(TraceEvent::RoundEnd {
                transmitters: 1,
                deliveries: 0,
                awake: 4,
            });
        }
    }

    // The zero-cost contract, checked at compile time.
    const _: () = assert!(!NullSink::ACTIVE);

    #[test]
    fn null_sink_emit_is_a_no_op() {
        NullSink.emit(TraceEvent::RoundStart { round: 1 }); // no-op, no panic
    }

    #[test]
    fn an_absent_sink_records_nothing_and_a_present_one_forwards() {
        // The engine attaches sinks by `&mut`; that impl must forward.
        fn borrowed_records<S: TraceSink>(sink: S) -> bool {
            sink.records()
        }
        assert!(!NullSink.records());
        let mut none: Option<RingSink> = None;
        assert!(!none.records() && !borrowed_records(&mut none));
        drive(&mut none, 2);
        let mut some = Some(RingSink::new(4));
        assert!(some.records() && borrowed_records(&mut some));
        drive(&mut some, 2);
        assert_eq!(some.expect("present").rounds().count(), 2);
        assert!(!Some(NullSink).records());
    }

    #[test]
    fn recording_sink_round_trips_through_the_reader() {
        let mut buf = Vec::new();
        let mut sink = RecordingSink::new(&mut buf, &header()).unwrap();
        drive(&mut sink, 3);
        assert_eq!(sink.rounds(), 3);
        assert_eq!(sink.events(), 9);
        sink.finish(true).unwrap();
        let rec = Recording::from_bytes(&buf).unwrap();
        assert_eq!(rec.header, header());
        assert_eq!(rec.rounds.len(), 3);
        assert_eq!(rec.rounds[2].round, 3);
        assert!(rec.footer.unwrap().completed);
    }

    #[test]
    fn recording_sink_create_writes_a_readable_file() {
        let dir = std::env::temp_dir().join(format!("rtrc-sink-{}", std::process::id()));
        let path = dir.join("nested/run.rtrc");
        let mut sink = RecordingSink::create(&path, &header()).unwrap();
        drive(&mut sink, 1);
        sink.finish(false).unwrap();
        let rec = Recording::read_from(&path).unwrap();
        assert_eq!(rec.rounds.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_sink_keeps_only_the_tail() {
        let mut sink = RingSink::new(2);
        drive(&mut sink, 5);
        assert_eq!(sink.dropped_rounds(), 3);
        let kept: Vec<u64> = sink.rounds().map(|r| r.round).collect();
        assert_eq!(kept, vec![4, 5]);
        let rec = sink.into_recording(header(), true);
        assert_eq!(rec.rounds.len(), 2);
        assert_eq!(rec.footer.unwrap().rounds, 2);
        // The packaged window re-encodes and re-reads cleanly.
        let back = Recording::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back, rec);
    }
}
