//! Property tests pinning the wide ChaCha kernel to the scalar
//! [`ChaCha8Rng`] stream — the bit-compatibility contract the batched
//! fused decide phase rests on.
//!
//! The claim under test: for *any* `(run_seed, node, round)` and *any*
//! supported lane width, a stream built from a wide-kernel lane (the
//! first `HEAD_WORDS` words of the block, plus the cold completion of
//! the rest on demand) draws exactly the words the node's per-node
//! stream generates lazily at the same position (`DecideStreams`
//! layout: decide lane = block `2·round`, receive lane = block
//! `2·round + 1`), for any number of draws. If this holds lane-by-lane,
//! the engine may batch draws in any grouping — any chunking of the
//! awake list, any thread count, any host's dispatched width — without
//! changing a single draw, which is exactly how `decide_span` inherits
//! the v2 determinism contract.

use proptest::prelude::*;
use radio_sim::DecideStreams;
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streams built from one wide batch of decide-lane heads == the
    /// scalar per-node streams, at every supported lane width (including
    /// widths beyond what this host dispatches), for arbitrary
    /// seeds/nodes/rounds and 0–48 draws: inside the head, across the
    /// cold completion of the block, and on into the next blocks.
    #[test]
    fn wide_lanes_match_per_node_streams(
        run_seed in any::<u64>(),
        base_node in 0u32..1_000_000,
        round in 0u64..(1 << 62),
        width_idx in 0usize..rand_chacha::WIDE_LANE_WIDTHS.len(),
        lanes in 1usize..=2 * rand_chacha::MAX_WIDE_LANES,
        draws in 0usize..=48,
    ) {
        let width = rand_chacha::WIDE_LANE_WIDTHS[width_idx];
        let streams = DecideStreams::new(run_seed);
        let nodes: Vec<u32> = (0..lanes as u32).map(|i| base_node + i * 7).collect();
        let keys: Vec<[u32; 8]> = nodes.iter().map(|&v| streams.node_key(v)).collect();
        let block = DecideStreams::decide_block(round);
        let counters = vec![block; lanes];
        let mut heads = vec![[0u32; rand_chacha::HEAD_WORDS]; lanes];
        rand_chacha::chacha8_block_heads_at_width(width, &keys, &counters, &mut heads);
        for (l, &v) in nodes.iter().enumerate() {
            // The scalar reference: the node's positioned decide stream,
            // generating its block lazily on first draw.
            let mut scalar = streams.decide_rng(v, round);
            let mut batched = ChaCha8Rng::from_block_head(keys[l], block, heads[l]);
            for w in 0..draws {
                prop_assert_eq!(
                    scalar.next_u32(), batched.next_u32(),
                    "width {} lane {} word {}", width, l, w
                );
            }
        }
    }

    /// `from_block_head` (the engine's way of turning a wide batch into
    /// positioned streams) is bit-identical to `set_block_pos` + lazy
    /// generation — including draws that run past the head and past the
    /// block boundary into the next block, and the receive lane.
    #[test]
    fn generated_block_streams_match_lazy_positioning(
        run_seed in any::<u64>(),
        node in 0u32..1_000_000,
        round in 0u64..(1 << 62),
        receive_lane in any::<bool>(),
        draws in 1usize..40,
    ) {
        let streams = DecideStreams::new(run_seed);
        let key = streams.node_key(node);
        let block = if receive_lane {
            DecideStreams::receive_block(round)
        } else {
            DecideStreams::decide_block(round)
        };
        // Lazy reference: position, let the first draw refill.
        let mut lazy = DecideStreams::rng_from_key(key, block);
        // Batched construction: head computed by the scalar block
        // function, stream assembled around it.
        let words = rand_chacha::chacha8_block(&key, block);
        let head = words[..rand_chacha::HEAD_WORDS].try_into().unwrap();
        let mut batched = ChaCha8Rng::from_block_head(key, block, head);
        for i in 0..draws {
            prop_assert_eq!(lazy.next_u32(), batched.next_u32(), "draw {}", i);
        }
    }

    /// `set_block_pos` mid-stream abandons a partially read buffer and
    /// reproduces the target block exactly — the edge the engine hits
    /// when a cached stream object is repositioned across rounds.
    #[test]
    fn repositioning_after_partial_reads_is_exact(
        run_seed in any::<u64>(),
        node in 0u32..1_000_000,
        first_round in 0u64..1_000_000,
        second_round in 0u64..1_000_000,
        partial in 0usize..16,
    ) {
        let streams = DecideStreams::new(run_seed);
        let mut rng = streams.decide_rng(node, first_round);
        for _ in 0..partial {
            rng.next_u32();
        }
        rng.set_block_pos(DecideStreams::decide_block(second_round));
        let mut fresh = streams.decide_rng(node, second_round);
        for i in 0..20 {
            prop_assert_eq!(rng.next_u32(), fresh.next_u32(), "draw {}", i);
        }
    }
}

/// The full-block kernel: lane `l` of a pass is
/// `chacha8_block(key, first + l)`, at every supported width, for pass
/// lengths that leave tails at every width, and for runs of counters
/// through 0, through 2³² − 1 (the carry into the counter's high word)
/// and through `u64::MAX` (the wrap).
#[test]
fn full_blocks_match_the_scalar_block_at_every_width() {
    let key = rand_chacha::key_words_from_u64(0x5EED_F00D);
    for first in [0u64, (1 << 32) - 5, u64::MAX - 5] {
        for lanes in [1usize, 3, 16, 2 * rand_chacha::MAX_WIDE_LANES + 5] {
            let expect: Vec<[u32; 16]> = (0..lanes as u64)
                .map(|l| rand_chacha::chacha8_block(&key, first.wrapping_add(l)))
                .collect();
            for width in rand_chacha::WIDE_LANE_WIDTHS {
                let mut out = vec![[0u32; 16]; lanes];
                rand_chacha::chacha8_blocks_at_width(width, &key, first, &mut out);
                assert_eq!(out, expect, "first {first:#x} lanes {lanes} width {width}");
            }
            let mut out = vec![[0u32; 16]; lanes];
            rand_chacha::chacha8_blocks(&key, first, &mut out);
            assert_eq!(out, expect, "first {first:#x} lanes {lanes}, dispatched");
        }
    }
}

/// Read ahead `k`, consume `j`: the peeked words are the next `k`
/// `next_u64` draws, and the stream ends where `j` `next_u64` calls
/// would have left it — same next words, same `words_consumed`, same
/// `block_pos` — from every 32-bit word offset inside a block, for
/// peeks shorter than the buffer tail, spanning blocks, and as wide as
/// the kernel.
fn check_read_ahead(start: &ChaCha8Rng, label: &str) {
    for k_asked in [1usize, 2, 3, 8, 17, 64, 128, 200] {
        let mut peeked = start.clone();
        let mut out = vec![0u64; k_asked];
        let k = peeked.peek_u64s(&mut out);
        assert!(
            (1..=k_asked).contains(&k),
            "{label}: peeked {k} of {k_asked}"
        );
        let mut draws = start.clone();
        let expect: Vec<u64> = (0..k).map(|_| draws.next_u64()).collect();
        assert_eq!(out[..k], expect[..], "{label}: peek {k_asked}");
        for j in [1, k / 2, k.saturating_sub(1), k] {
            if j == 0 {
                continue;
            }
            let mut consumed = peeked.clone();
            consumed.consume_u64s(j);
            let mut reference = start.clone();
            for _ in 0..j {
                reference.next_u64();
            }
            let at = format!("{label}: peek {k_asked} ({k}), consume {j}");
            assert_eq!(
                consumed.words_consumed(),
                reference.words_consumed(),
                "{at}"
            );
            assert_eq!(consumed.block_pos(), reference.block_pos(), "{at}");
            for w in 0..40 {
                assert_eq!(consumed.next_u32(), reference.next_u32(), "{at}, word {w}");
            }
        }
    }
}

#[test]
fn read_ahead_then_consume_ends_where_next_u64_would() {
    let key = rand_chacha::key_words_from_u64(77);
    for block in [0u64, 5, (1 << 32) - 1, u64::MAX] {
        for offset in 0..16 {
            let mut rng = ChaCha8Rng::from_key_words(key);
            rng.set_block_pos(block);
            for _ in 0..offset {
                rng.next_u32();
            }
            check_read_ahead(&rng, &format!("block {block:#x} offset {offset}"));
        }
    }
}

#[test]
fn read_ahead_from_a_block_head_stream() {
    let streams = DecideStreams::new(0xB10C);
    for node in [0u32, 9, 1 << 20] {
        let key = streams.node_key(node);
        let block = DecideStreams::decide_block(1234);
        let mut heads = [[0u32; rand_chacha::HEAD_WORDS]];
        rand_chacha::chacha8_block_heads(&[key], &[block], &mut heads);
        for offset in 0..=rand_chacha::HEAD_WORDS + 2 {
            let mut rng = ChaCha8Rng::from_block_head(key, block, heads[0]);
            for _ in 0..offset {
                rng.next_u32();
            }
            check_read_ahead(&rng, &format!("node {node} head offset {offset}"));
        }
    }
}

/// v2 builds one `ChaCha8Rng` per awake node-round from a block head:
/// the read-ahead lives on the caller's stack, not in the generator.
#[test]
#[cfg(target_pointer_width = "64")]
fn the_generator_does_not_grow() {
    assert_eq!(std::mem::size_of::<ChaCha8Rng>(), 120);
}
