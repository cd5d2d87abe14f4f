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
