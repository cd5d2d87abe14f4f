//! **v2 determinism contract**: counter-based per-node decide streams.
//!
//! The v1 contract threads one shared [`ChaCha8Rng`] through the run and
//! consumes it serially, in poll order — correct, but it chains every
//! node's coin flip onto every other node's, so the decide phase can
//! never leave the single thread that owns the stream. The algorithms
//! this workspace simulates don't need that coupling: the paper's model
//! (and the "without network knowledge" line of work it sits in, e.g.
//! Czumaj–Davies 2018) has every node flip *its own* coins. v2 makes the
//! implementation match the model:
//!
//! | quantity | derivation |
//! |----------|------------|
//! | node key `k_v` | `split_seed(run_seed, b"v2-node", v)` → ChaCha8 key |
//! | decide draw, round `r` | key `k_v`, block counter `2r` (words `32r..32r+16`) |
//! | receive draw, round `r` | key `k_v`, block counter `2r + 1` |
//!
//! Any worker can therefore evaluate any node's decision for any round
//! independently — position a stream at `(node, round)` and draw — which
//! is what lets the fused engine
//! ([`Engine::run_fused`](crate::Engine::run_fused)) fan the decide
//! phase out across threads with **bit-identical results for every
//! thread count, by construction**: the draws are a pure function of
//! `(run_seed, node, round)`, not of evaluation order.
//!
//! Each `(node, round, lane)` owns one 64-byte ChaCha block = 16 words
//! (a `random_bool` costs 2). A protocol drawing more than 16 words in a
//! single `decide` simply runs into the following block; determinism and
//! thread-independence are unaffected (the position still depends only
//! on `(node, round)`), only the statistical independence between that
//! decide and the node's *next* lane is weakened. No protocol in this
//! workspace draws more than 4 words per decide.
//!
//! The run-level overlay streams are untouched: graph generation, the
//! shared Algorithm-3 sequence, and `FadingRadio`'s channel randomness
//! keep their own labelled streams (`b"shared-seq"`, `b"fading"`, …), so
//! v2 runs compose with the energy subsystem exactly as v1 runs do.

use radio_graph::NodeId;
use radio_util::split_seed;
use rand_chacha::ChaCha8Rng;

/// Blocks per round per node: one decide lane + one receive lane.
const LANES: u64 = 2;

/// The per-node stream family of one run — see the module docs for the
/// exact layout. `Copy` and 8 bytes, so workers share it freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecideStreams {
    run_seed: u64,
}

impl DecideStreams {
    /// The stream family for `run_seed` (a sweep trial seed, an
    /// experiment seed — any u64; the per-node keys are derived through
    /// the workspace's labelled [`split_seed`] fan-out, so the same seed
    /// can also feed other labelled consumers without correlation).
    pub fn new(run_seed: u64) -> Self {
        DecideStreams { run_seed }
    }

    /// The wrapped run seed.
    pub fn run_seed(&self) -> u64 {
        self.run_seed
    }

    /// `node`'s ChaCha key words — the cacheable identity of its stream
    /// family. Equal to the key `seed_from_u64(split_seed(run_seed,
    /// b"v2-node", node))` installs, exposed so the fused engine can pay
    /// the SplitMix64 fan-out + expansion **once per node per run** (at
    /// the start for the initially awake nodes, otherwise at the node's
    /// first delivery) and rebuild every decide and receive lane of the
    /// run from the cached words (see [`Self::rng_from_key`]); a receive
    /// lane is built only for a delivery.
    #[inline]
    pub fn node_key(&self, node: NodeId) -> [u32; 8] {
        rand_chacha::key_words_from_u64(split_seed(self.run_seed, b"v2-node", u64::from(node)))
    }

    /// Block index of the decide lane for `round` (block `2r`).
    #[inline]
    pub fn decide_block(round: u64) -> u64 {
        round.wrapping_mul(LANES)
    }

    /// Block index of the receive lane for `round` (block `2r + 1`).
    #[inline]
    pub fn receive_block(round: u64) -> u64 {
        round.wrapping_mul(LANES).wrapping_add(1)
    }

    /// A stream for a cached [`node_key`](Self::node_key), positioned at
    /// `block` — bit-identical to deriving the node's stream from
    /// scratch and seeking there, minus the key derivation. Lazy like
    /// every other construction: no block is computed until a draw
    /// forces it.
    #[inline]
    pub fn rng_from_key(key: [u32; 8], block: u64) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::from_key_words(key);
        rng.set_block_pos(block);
        rng
    }

    #[inline]
    fn lane(&self, node: NodeId, round: u64, lane: u64) -> ChaCha8Rng {
        // Keyed per node; the round indexes the keystream. Seeding and
        // seeking are both lazy state setup — the ChaCha block is only
        // computed if the consumer actually draws.
        Self::rng_from_key(
            self.node_key(node),
            round.wrapping_mul(LANES).wrapping_add(lane),
        )
    }

    /// `node`'s decide stream for `round`, positioned at its own block.
    #[inline]
    pub fn decide_rng(&self, node: NodeId, round: u64) -> ChaCha8Rng {
        self.lane(node, round, 0)
    }

    /// `node`'s on-receive stream for `round` (disjoint lane, so a
    /// protocol drawing in both `decide` and `on_receive` never overlaps
    /// itself).
    #[inline]
    pub fn receive_rng(&self, node: NodeId, round: u64) -> ChaCha8Rng {
        self.lane(node, round, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn streams_are_pure_functions_of_seed_node_round() {
        let s = DecideStreams::new(42);
        let draw = |node, round| s.decide_rng(node, round).random::<u64>();
        assert_eq!(draw(3, 7), draw(3, 7));
        assert_ne!(draw(3, 7), draw(4, 7));
        assert_ne!(draw(3, 7), draw(3, 8));
        assert_ne!(
            DecideStreams::new(1).decide_rng(0, 1).random::<u64>(),
            DecideStreams::new(2).decide_rng(0, 1).random::<u64>()
        );
    }

    #[test]
    fn lanes_are_disjoint() {
        let s = DecideStreams::new(9);
        // The decide and receive lanes of (node, round) are distinct
        // blocks of the node's keystream: positions interleave
        // 2r / 2r + 1 and never collide across rounds either.
        assert_eq!(s.decide_rng(5, 3).block_pos(), 6);
        assert_eq!(s.receive_rng(5, 3).block_pos(), 7);
        assert_eq!(s.decide_rng(5, 4).block_pos(), 8);
        // A full 16-word decide draw stops exactly where the receive
        // lane begins (the documented overrun behavior).
        let mut d = s.decide_rng(5, 3);
        for _ in 0..16 {
            rand::RngCore::next_u32(&mut d);
        }
        let mut r = s.receive_rng(5, 3);
        assert_eq!(
            rand::RngCore::next_u32(&mut d),
            rand::RngCore::next_u32(&mut r)
        );
    }

    #[test]
    fn cached_keys_rebuild_the_same_streams() {
        // The batched path (cache node_key once, rebuild positioned
        // streams from it) must be indistinguishable from the from-
        // scratch derivation — for both lanes, at any round.
        let s = DecideStreams::new(0xCAFE);
        for node in [0u32, 3, 1000] {
            let key = s.node_key(node);
            for round in [1u64, 2, 77, 1 << 40] {
                let mut a = s.decide_rng(node, round);
                let mut b = DecideStreams::rng_from_key(key, DecideStreams::decide_block(round));
                assert_eq!(a.random::<u64>(), b.random::<u64>());
                let mut a = s.receive_rng(node, round);
                let mut b = DecideStreams::rng_from_key(key, DecideStreams::receive_block(round));
                assert_eq!(a.random::<u64>(), b.random::<u64>());
            }
        }
    }

    #[test]
    fn block_indices_match_the_documented_layout() {
        assert_eq!(DecideStreams::decide_block(3), 6);
        assert_eq!(DecideStreams::receive_block(3), 7);
        let s = DecideStreams::new(9);
        assert_eq!(
            s.decide_rng(5, 3).block_pos(),
            DecideStreams::decide_block(3)
        );
        assert_eq!(
            s.receive_rng(5, 3).block_pos(),
            DecideStreams::receive_block(3)
        );
    }

    #[test]
    fn evaluation_order_cannot_matter() {
        // The property the fused engine's thread-independence rests on:
        // draws for a set of (node, round) pairs are identical whatever
        // order they are evaluated in.
        let s = DecideStreams::new(0xBEEF);
        let pairs = [(0u32, 1u64), (7, 1), (2, 5), (0, 2), (9, 9)];
        let forward: Vec<u64> = pairs
            .iter()
            .map(|&(v, r)| s.decide_rng(v, r).random())
            .collect();
        let backward: Vec<u64> = pairs
            .iter()
            .rev()
            .map(|&(v, r)| s.decide_rng(v, r).random())
            .collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }
}
