//! Offline stand-in for the `rand_chacha` crate: [`ChaCha8Rng`], a real
//! ChaCha stream cipher (8 rounds, D. J. Bernstein's original 64-bit
//! counter / 64-bit nonce layout) used as a counter-mode PRNG.
//!
//! Why ChaCha here at all, instead of something cheaper? The workspace
//! records concrete experiment numbers, so the generator must be *stable
//! by definition* — a documented keystream no library update can change —
//! and must support cheap independent streams from derived seeds. ChaCha's
//! keyed counter mode gives both. The word stream for a given seed is the
//! ChaCha8 keystream with that key, zero nonce, block counter starting at
//! zero, words taken little-endian in order — verified against an
//! independently computed test vector below.
//!
//! Beyond the `rand_chacha` surface, the shim has a wide, runtime-
//! dispatched struct-of-arrays block kernel in two output sizes: block
//! heads ([`chacha8_block_heads`], for the engine's batched decide
//! phase) and whole blocks ([`chacha8_blocks`], consecutive blocks of
//! one stream). [`ChaCha8Rng`] implements the `rand` shim's read-ahead
//! extension (`RngCore::peek_u64s` / `consume_u64s`) with the whole-block
//! kernel, on the caller's stack: the generator itself does not grow.
//!
//! Not a contribution to cryptography: this is a PRNG for simulations.

use rand::{RngCore, SeedableRng};

/// Re-export point mirroring `rand_chacha::rand_core`, so existing
/// `use rand_chacha::rand_core::SeedableRng` imports keep working.
pub mod rand_core {
    pub use rand::{RngCore, SeedableRng};
}

/// "expand 32-byte k" — the ChaCha constant words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];

const CHACHA8_DOUBLE_ROUNDS: usize = 4;

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One ChaCha8 output block for `key` at block counter `counter` (zero
/// nonce, the layout documented in the crate docs). The single source of
/// truth for the block function — the sequential [`ChaCha8Rng`] produces
/// exactly these words, and the wide kernels their first
/// [`HEAD_WORDS`] or all of them.
pub fn chacha8_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
    let mut state: [u32; 16] = [
        SIGMA[0],
        SIGMA[1],
        SIGMA[2],
        SIGMA[3],
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        0,
        0,
    ];
    let input = state;
    for _ in 0..CHACHA8_DOUBLE_ROUNDS {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (word, inp) in state.iter_mut().zip(input) {
        *word = word.wrapping_add(inp);
    }
    state
}

/// The SplitMix64 expansion of a `u64` seed into ChaCha key words —
/// exactly the words [`SeedableRng::seed_from_u64`] produces (each key
/// word is the low half of one SplitMix64 output), exposed so callers
/// that cache per-entity keys can derive them without routing through
/// a byte-array seed.
pub fn key_words_from_u64(mut state: u64) -> [u32; 8] {
    let mut key = [0u32; 8];
    for word in key.iter_mut() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        *word = z as u32;
    }
    key
}

// --- wide (multi-lane) block kernel -------------------------------------
//
// Counter-mode streams batch perfectly: W independent (key, counter)
// pairs run the identical data-independent schedule, so transposing the
// state into structure-of-arrays form — `state[i][lane]` — turns every
// quarter-round op into W-wide element-wise adds/xors/rotates that the
// compiler auto-vectorizes (AVX2 on x86-64 via the runtime-dispatched
// 8-lane path below, 128-bit SSE2/NEON for the 4-lane path).
//
// The kernel comes in two output sizes. The head kernel
// (`chacha8_block_heads`) outputs only the first `HEAD_WORDS` words of
// each block: its one caller (the engine's v2 decide phase) reads at
// most that many per lane, and a stream built from a head
// (`from_block_head`) computes the rest of its block on demand. The
// full-block kernel (`chacha8_blocks`) outputs all 16 words, for bulk
// readers of one stream: `ChaCha8Rng`'s read-ahead and the implicit
// `G(n, p)` rows. The two share only the rounds (`soa_double_rounds`):
// each has its own input setup, feed-forward and dispatch, so the
// engine's head pass compiles as if the other did not exist. Lane `l`
// of a wide call is bit-exactly (the head of) `chacha8_block(keys[l],
// counters[l])` at every width — pinned by `tests/wide_chacha.rs` — so
// callers may batch blocks in any grouping without changing a single
// output word.

/// Words per lane the head kernel outputs: the head of each block. Four
/// words cover every in-tree decide (a Bernoulli coin reads two, a
/// windowed `f64` plus coin reads four).
pub const HEAD_WORDS: usize = 4;

/// Words in one ChaCha block, the lane output of the full-block kernel.
pub const BLOCK_WORDS: usize = 16;

/// Widest batch the wide kernel handles in one SoA pass (the AVX-512
/// path; scratch arrays in callers can be sized to this).
pub const MAX_WIDE_LANES: usize = 16;

/// Every lane width the wide kernel can be forced to run at (see
/// [`chacha8_block_heads_at_width`]); `wide_lanes()` picks one of these.
pub const WIDE_LANE_WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

// Index-form loops throughout the kernel: each `for l in 0..W` over a
// fixed row is one W-wide vector op, and keeping every loop in the same
// shape is what the auto-vectorizer reliably turns into packed
// adds/xors/rolls (iterator chains over `[[u32; W]; 16]` rows obscure
// the unit-stride access pattern from the cost model).
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn soa_quarter_round<const W: usize>(
    state: &mut [[u32; W]; 16],
    a: usize,
    b: usize,
    c: usize,
    d: usize,
) {
    for l in 0..W {
        state[a][l] = state[a][l].wrapping_add(state[b][l]);
    }
    for l in 0..W {
        state[d][l] = (state[d][l] ^ state[a][l]).rotate_left(16);
    }
    for l in 0..W {
        state[c][l] = state[c][l].wrapping_add(state[d][l]);
    }
    for l in 0..W {
        state[b][l] = (state[b][l] ^ state[c][l]).rotate_left(12);
    }
    for l in 0..W {
        state[a][l] = state[a][l].wrapping_add(state[b][l]);
    }
    for l in 0..W {
        state[d][l] = (state[d][l] ^ state[a][l]).rotate_left(8);
    }
    for l in 0..W {
        state[c][l] = state[c][l].wrapping_add(state[d][l]);
    }
    for l in 0..W {
        state[b][l] = (state[b][l] ^ state[c][l]).rotate_left(7);
    }
}

/// The ChaCha8 rounds over a `W`-lane SoA state, in place (no
/// feed-forward).
#[inline(always)]
fn soa_double_rounds<const W: usize>(state: &mut [[u32; W]; 16]) {
    for _ in 0..CHACHA8_DOUBLE_ROUNDS {
        soa_quarter_round(state, 0, 4, 8, 12);
        soa_quarter_round(state, 1, 5, 9, 13);
        soa_quarter_round(state, 2, 6, 10, 14);
        soa_quarter_round(state, 3, 7, 11, 15);
        soa_quarter_round(state, 0, 5, 10, 15);
        soa_quarter_round(state, 1, 6, 11, 12);
        soa_quarter_round(state, 2, 7, 8, 13);
        soa_quarter_round(state, 3, 4, 9, 14);
    }
}

/// `W` block heads in one SoA pass; all slices must have length `W`.
#[allow(clippy::needless_range_loop)] // see `soa_quarter_round`
#[inline(always)]
fn heads_soa<const W: usize>(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; HEAD_WORDS]]) {
    assert!(keys.len() == W && counters.len() == W && out.len() == W);
    let mut state = [[0u32; W]; 16];
    for (i, s) in SIGMA.iter().enumerate() {
        state[i] = [*s; W];
    }
    for i in 0..8 {
        for l in 0..W {
            state[4 + i][l] = keys[l][i];
        }
    }
    for l in 0..W {
        state[12][l] = counters[l] as u32;
        state[13][l] = (counters[l] >> 32) as u32;
    }
    // The head rows 0–3 start as the compile-time constants, so their
    // feed-forward needs no saved copy of the input: the round loop's
    // live set is just the 16 state vectors plus temps.
    soa_double_rounds(&mut state);
    // Feed-forward row-wise (W-wide vector adds), then transpose out; a
    // fused `out[l][i] = state[i][l] + SIGMA[i]` reads column-wise and
    // defeats vectorization of the adds. Rows 4–15 are not output.
    for i in 0..HEAD_WORDS {
        for l in 0..W {
            state[i][l] = state[i][l].wrapping_add(SIGMA[i]);
        }
    }
    for l in 0..W {
        for i in 0..HEAD_WORDS {
            out[l][i] = state[i][l];
        }
    }
}

/// The 8-lane pass compiled with AVX2 codegen (256-bit = exactly eight
/// u32 lanes per register; the 16-row state fits the 16-register YMM
/// file). Safety: caller must have verified `avx2` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn heads_soa_8_avx2(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; HEAD_WORDS]]) {
    heads_soa::<8>(keys, counters, out);
}

/// The 8-lane pass compiled with AVX-512VL codegen: still 256-bit
/// vectors (8 × u32), but the quarter-round rotates become single
/// `vprold` instructions instead of shift/shift/or triples — ChaCha is
/// one-third rotates, so this is the cheapest big win on hosts that
/// have it. Safety: caller must have verified `avx512f` + `avx512vl`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn heads_soa_8_avx512(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; HEAD_WORDS]]) {
    heads_soa::<8>(keys, counters, out);
}

/// The 16-lane pass compiled with AVX-512F codegen: one full ZMM
/// register per state row (16 × u32), single-instruction `vprold`
/// rotates, and the 16-row working state fits the 32-register ZMM file
/// without spilling. Safety: caller must have verified `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn heads_soa_16_avx512(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; HEAD_WORDS]]) {
    heads_soa::<16>(keys, counters, out);
}

#[cfg(target_arch = "x86_64")]
fn has_avx512_rotates() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
}

#[cfg(target_arch = "x86_64")]
fn detect_wide_lanes() -> usize {
    if std::arch::is_x86_feature_detected!("avx512f") {
        16
    } else if std::arch::is_x86_feature_detected!("avx2") {
        8
    } else {
        4
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_wide_lanes() -> usize {
    // 128-bit SIMD (NEON / portable) — four u32 lanes.
    4
}

/// The lane width the runtime dispatch selects on this host (16 with
/// AVX-512F, 8 with AVX2, 4 otherwise). Outputs are identical at every
/// width; this only governs how many blocks one SoA pass computes.
pub fn wide_lanes() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static LANES: AtomicUsize = AtomicUsize::new(0);
    match LANES.load(Ordering::Relaxed) {
        0 => {
            let w = detect_wide_lanes();
            LANES.store(w, Ordering::Relaxed);
            w
        }
        w => w,
    }
}

/// One exact-width batch (`keys.len()` ∈ [`WIDE_LANE_WIDTHS`]), routed
/// through the feature-specific codegen where one exists.
fn heads_exact(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; HEAD_WORDS]]) {
    match keys.len() {
        16 => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the target feature was detected just above.
                return unsafe { heads_soa_16_avx512(keys, counters, out) };
            }
            heads_soa::<16>(keys, counters, out)
        }
        8 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: each call follows the detection of its target features.
                if has_avx512_rotates() {
                    return unsafe { heads_soa_8_avx512(keys, counters, out) };
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return unsafe { heads_soa_8_avx2(keys, counters, out) };
                }
            }
            heads_soa::<8>(keys, counters, out)
        }
        4 => heads_soa::<4>(keys, counters, out),
        2 => heads_soa::<2>(keys, counters, out),
        1 => heads_soa::<1>(keys, counters, out),
        w => unreachable!("unsupported lane width {w}"),
    }
}

/// Generate the heads of `out.len()` ChaCha8 blocks — `out[l]` = the
/// first [`HEAD_WORDS`] words of `chacha8_block(keys[l], counters[l])` —
/// in runtime-dispatched wide batches. Any length is accepted: full
/// [`wide_lanes`]-wide groups run the SIMD path, a remainder of at
/// least 8 lanes one 8-lane pass, and the rest the scalar block. Turn a
/// head into a positioned stream with [`ChaCha8Rng::from_block_head`].
pub fn chacha8_block_heads(keys: &[[u32; 8]], counters: &[u64], out: &mut [[u32; HEAD_WORDS]]) {
    chacha8_block_heads_at_width(wide_lanes(), keys, counters, out)
}

/// [`chacha8_block_heads`] with the lane width forced (test hook for
/// pinning every width against the scalar stream; `width` must be one
/// of [`WIDE_LANE_WIDTHS`]).
pub fn chacha8_block_heads_at_width(
    width: usize,
    keys: &[[u32; 8]],
    counters: &[u64],
    out: &mut [[u32; HEAD_WORDS]],
) {
    assert!(
        WIDE_LANE_WIDTHS.contains(&width),
        "unsupported lane width {width}"
    );
    assert!(
        keys.len() == counters.len() && keys.len() == out.len(),
        "lane slice lengths differ"
    );
    let mut done = 0;
    let mut pass = |w: usize, done: &mut usize| {
        heads_exact(
            &keys[*done..*done + w],
            &counters[*done..*done + w],
            &mut out[*done..*done + w],
        );
        *done += w;
    };
    while keys.len() - done >= width {
        pass(width, &mut done);
    }
    if width > 8 && keys.len() - done >= 8 {
        pass(8, &mut done);
    }
    // Below 8 lanes the portable SoA passes cost more per head than the
    // scalar block (56–100 ns against 52–65 ns on an AVX-512 Xeon).
    for l in done..keys.len() {
        let block = chacha8_block(&keys[l], counters[l]);
        out[l].copy_from_slice(&block[..HEAD_WORDS]);
    }
}

/// `W` consecutive whole blocks of the stream keyed `key`, block
/// `first + l` (wrapping) in lane `l`, in one SoA pass; `out` must have
/// length `W`. The head kernel's rounds, with a one-key, consecutive-
/// counter input and all 16 rows fed forward.
#[allow(clippy::needless_range_loop)] // see `soa_quarter_round`
#[inline(always)]
fn stream_blocks_soa<const W: usize>(key: &[u32; 8], first: u64, out: &mut [[u32; BLOCK_WORDS]]) {
    assert!(out.len() == W);
    let mut input = [[0u32; W]; 16];
    for (i, s) in SIGMA.iter().enumerate() {
        input[i] = [*s; W];
    }
    for i in 0..8 {
        input[4 + i] = [key[i]; W];
    }
    for l in 0..W {
        let counter = first.wrapping_add(l as u64);
        input[12][l] = counter as u32;
        input[13][l] = (counter >> 32) as u32;
    }
    let mut state = input;
    soa_double_rounds(&mut state);
    feed_forward_out(&state, &input, out);
}

/// The feed-forward and output transpose of a full-block pass, compiled
/// apart from the wide codegen: inlined into it, the 16 × W
/// feed-forward became gather–add–scatter triples, several times the
/// cost of the rounds themselves.
#[allow(clippy::needless_range_loop)] // see `soa_quarter_round`
#[inline(never)]
fn feed_forward_out<const W: usize>(
    state: &[[u32; W]; 16],
    input: &[[u32; W]; 16],
    out: &mut [[u32; BLOCK_WORDS]],
) {
    for l in 0..W {
        for i in 0..BLOCK_WORDS {
            out[l][i] = state[i][l].wrapping_add(input[i][l]);
        }
    }
}

/// The 8-lane full-block pass with AVX2 codegen (see
/// `heads_soa_8_avx2`). Safety: caller must have verified `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn stream_blocks_8_avx2(key: &[u32; 8], first: u64, out: &mut [[u32; BLOCK_WORDS]]) {
    stream_blocks_soa::<8>(key, first, out);
}

/// The 8-lane full-block pass with AVX-512VL codegen (see
/// `heads_soa_8_avx512`). Safety: caller must have verified `avx512f` +
/// `avx512vl`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn stream_blocks_8_avx512(key: &[u32; 8], first: u64, out: &mut [[u32; BLOCK_WORDS]]) {
    stream_blocks_soa::<8>(key, first, out);
}

/// The 16-lane full-block pass with AVX-512F codegen (see
/// `heads_soa_16_avx512`). Safety: caller must have verified `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn stream_blocks_16_avx512(key: &[u32; 8], first: u64, out: &mut [[u32; BLOCK_WORDS]]) {
    stream_blocks_soa::<16>(key, first, out);
}

/// One exact-width full-block batch (`out.len()` ∈
/// [`WIDE_LANE_WIDTHS`]), dispatched like `heads_exact`.
fn stream_blocks_exact(key: &[u32; 8], first: u64, out: &mut [[u32; BLOCK_WORDS]]) {
    match out.len() {
        16 => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the target feature was detected just above.
                return unsafe { stream_blocks_16_avx512(key, first, out) };
            }
            stream_blocks_soa::<16>(key, first, out)
        }
        8 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: each call follows the detection of its target features.
                if has_avx512_rotates() {
                    return unsafe { stream_blocks_8_avx512(key, first, out) };
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return unsafe { stream_blocks_8_avx2(key, first, out) };
                }
            }
            stream_blocks_soa::<8>(key, first, out)
        }
        4 => stream_blocks_soa::<4>(key, first, out),
        2 => stream_blocks_soa::<2>(key, first, out),
        1 => stream_blocks_soa::<1>(key, first, out),
        w => unreachable!("unsupported lane width {w}"),
    }
}

/// Generate `out.len()` consecutive whole blocks of the stream keyed
/// `key`, from block `first` on — `out[l]` =
/// `chacha8_block(key, first + l)`, the counter wrapping like the
/// stream's — with the runtime dispatch of [`chacha8_block_heads`]:
/// a stream's keystream read ahead in wide passes. A length that is a
/// multiple of [`wide_lanes`] runs only full-width passes.
pub fn chacha8_blocks(key: &[u32; 8], first: u64, out: &mut [[u32; BLOCK_WORDS]]) {
    chacha8_blocks_at_width(wide_lanes(), key, first, out)
}

/// [`chacha8_blocks`] with the lane width forced (`width` must be one
/// of [`WIDE_LANE_WIDTHS`]).
pub fn chacha8_blocks_at_width(
    width: usize,
    key: &[u32; 8],
    first: u64,
    out: &mut [[u32; BLOCK_WORDS]],
) {
    assert!(
        WIDE_LANE_WIDTHS.contains(&width),
        "unsupported lane width {width}"
    );
    // Full-width passes, then the tail down the narrower widths.
    let mut done = 0;
    let mut w = width;
    while w > 0 {
        while out.len() - done >= w {
            let at = first.wrapping_add(done as u64);
            stream_blocks_exact(key, at, &mut out[done..done + w]);
            done += w;
        }
        w /= 2;
    }
}

/// The ChaCha8 random number generator.
///
/// Construct via [`SeedableRng::from_seed`] (32-byte key) or
/// [`SeedableRng::seed_from_u64`] (SplitMix64-expanded, matching the
/// `rand` shim's documented expansion). Equal seeds give bit-identical
/// streams forever; `Clone` snapshots the exact stream position.
///
/// `PartialEq` compares the internal state structurally — key, counter,
/// buffer, read position and whether the buffer holds only a block
/// head — not the words still to come. A stream built by
/// [`from_block_head`](Self::from_block_head) draws exactly the words of
/// a lazily positioned one, yet the two compare unequal while their
/// buffers differ; so may a stream moved on by a read-ahead
/// (`RngCore::consume_u64s`) and one moved on by draws.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaCha8Rng {
    /// Key + counter state; constants are re-applied per block.
    key: [u32; 8],
    /// 64-bit block counter (words 12–13 of the state).
    counter: u64,
    /// Current 16-word output block.
    buf: [u32; 16],
    /// Next unread word in `buf`; 16 ⇒ refill.
    index: usize,
    /// `buf` holds only the head of block `counter − 1`, in its last
    /// [`HEAD_WORDS`] slots (see [`from_block_head`](Self::from_block_head)),
    /// so the draw that exhausts the head computes the rest of the block
    /// instead of refilling.
    head_only: bool,
}

/// Where a head-only buffer keeps its head: the last [`HEAD_WORDS`]
/// slots, so the draw path's one `index == 16` check also ends the head.
const HEAD_AT: usize = 16 - HEAD_WORDS;

impl ChaCha8Rng {
    fn refill(&mut self) {
        if self.head_only {
            return self.complete_head();
        }
        self.buf = chacha8_block(&self.key, self.counter);
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// Make a head-only buffer whole: compute the current block
    /// (`counter` already points past it), once, and keep the read
    /// position. A draw that exhausts the head lands here with `index`
    /// at 16, and continues at the block's first word after the head.
    #[cold]
    #[inline(never)]
    fn complete_head(&mut self) {
        self.buf = chacha8_block(&self.key, self.counter.wrapping_sub(1));
        self.index -= HEAD_AT;
        self.head_only = false;
    }

    /// The stream's key words (the 32-byte key, little-endian words) —
    /// the cacheable identity of the stream: a stream rebuilt via
    /// [`from_key_words`](Self::from_key_words) +
    /// [`set_block_pos`](Self::set_block_pos) is indistinguishable from
    /// this one repositioned there.
    pub fn key_words(&self) -> [u32; 8] {
        self.key
    }

    /// A stream from pre-expanded key words, positioned at block 0 with
    /// nothing generated yet — the cached-key counterpart of
    /// [`SeedableRng::from_seed`] (same cost: a key copy, block
    /// generation stays lazy).
    pub fn from_key_words(key: [u32; 8]) -> Self {
        ChaCha8Rng {
            key,
            counter: 0,
            buf: [0; 16],
            index: 16,
            head_only: false,
        }
    }

    /// A stream positioned at the start of `block` whose first
    /// [`HEAD_WORDS`] words are already computed (`head` = the start of
    /// `chacha8_block(&key, block)`, e.g. one lane of a
    /// [`chacha8_block_heads`] batch), with nothing read yet. It draws
    /// exactly the words of [`from_key_words`](Self::from_key_words) +
    /// [`set_block_pos`](Self::set_block_pos)`(block)`, for any number of
    /// draws: the head costs no scalar ChaCha work, a draw past it
    /// computes the rest of `block` once (a cold path), and draws past
    /// word 15 continue into block `block + 1`. The batched callers' way
    /// of turning wide kernel output into positioned streams.
    #[inline]
    pub fn from_block_head(key: [u32; 8], block: u64, head: [u32; HEAD_WORDS]) -> Self {
        let mut buf = [0; 16];
        buf[HEAD_AT..].copy_from_slice(&head);
        ChaCha8Rng {
            key,
            counter: block.wrapping_add(1),
            buf,
            index: HEAD_AT,
            head_only: true,
        }
    }

    /// Number of 32-bit words drawn so far (diagnostics / tests).
    pub fn words_consumed(&self) -> u64 {
        // counter blocks fully generated, minus the unread tail of `buf`
        // and the slots in front of a head-only buffer's head (modulo
        // 2⁶⁴, like the keystream position itself).
        let unread = 16 - self.index + if self.head_only { HEAD_AT } else { 0 };
        self.counter.wrapping_mul(16).wrapping_sub(unread as u64)
    }

    /// Jump the keystream to the start of 64-byte `block` — ChaCha's
    /// native counter-mode seek. The next draw reads word 0 of that
    /// block; nothing is computed until then (block generation is lazy),
    /// so constructing a stream and seeking it is just state setup.
    ///
    /// This is what makes **counter-based sub-streams** possible: with a
    /// per-entity key, `(entity, index) → set_block_pos(index)` gives a
    /// random-access family of 16-word draws that any thread can evaluate
    /// independently — the v2 per-node decide streams of `radio-sim`.
    #[inline]
    pub fn set_block_pos(&mut self, block: u64) {
        self.counter = block;
        self.index = 16; // force a (lazy) refill at the next draw
        self.head_only = false;
    }

    /// The block index the next draw will read from (the inverse of
    /// [`set_block_pos`](Self::set_block_pos) at block granularity).
    pub fn block_pos(&self) -> u64 {
        if self.index == 16 && !self.head_only {
            self.counter
        } else {
            self.counter.wrapping_sub(1)
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        // Block generation is lazy (the first draw refills), so seeding
        // costs only the key copy — important for the per-node decide
        // streams, which construct + position a stream per decision and
        // often draw a single word from it.
        ChaCha8Rng::from_key_words(key)
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index == 16 {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Read ahead through the unread tail of the buffer and then whole
    /// blocks in full-width kernel passes, at most [`MAX_WIDE_LANES`]
    /// of them, generated by one [`chacha8_blocks`] call into a stack
    /// buffer: the stream state
    /// stays as it is (a head-only buffer is completed in place), so
    /// the peek costs no scalar block work.
    fn peek_u64s(&mut self, out: &mut [u64]) -> usize {
        if out.is_empty() {
            return 0;
        }
        if self.head_only {
            self.complete_head();
        }
        let tail = BLOCK_WORDS - self.index;
        // Enough blocks to fill `out` after the tail, rounded up to
        // full-width kernel passes and capped at one pass of the widest
        // kernel; none when the tail fills `out` by itself.
        let blocks = (2 * out.len())
            .saturating_sub(tail)
            .div_ceil(BLOCK_WORDS)
            .next_multiple_of(wide_lanes())
            .min(MAX_WIDE_LANES);
        // The upcoming 32-bit words, contiguous: the current buffer,
        // read from `index`, then the generated blocks.
        let mut words = [[0u32; BLOCK_WORDS]; MAX_WIDE_LANES + 1];
        words[0] = self.buf;
        chacha8_blocks(&self.key, self.counter, &mut words[1..=blocks]);
        let ahead = &words.as_flattened()[self.index..BLOCK_WORDS * (blocks + 1)];
        let k = out.len().min(ahead.len() / 2);
        for (o, pair) in out[..k].iter_mut().zip(ahead.chunks_exact(2)) {
            *o = u64::from(pair[0]) | u64::from(pair[1]) << 32;
        }
        k
    }

    /// Move the read position `2·j` words on. A position inside the
    /// buffer just moves `index`; one past it moves the counter, and
    /// recomputes its block only when it lands inside one (once per
    /// bulk read, at its end).
    fn consume_u64s(&mut self, j: usize) {
        if self.head_only {
            self.complete_head();
        }
        let tail = BLOCK_WORDS - self.index;
        let words = 2 * j;
        if words <= tail {
            self.index += words;
            return;
        }
        let past = words - tail;
        let (blocks, offset) = (past / BLOCK_WORDS, past % BLOCK_WORDS);
        self.counter = self.counter.wrapping_add(blocks as u64);
        self.index = BLOCK_WORDS;
        if offset != 0 {
            self.refill();
            self.index = offset;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// ChaCha8 keystream, block 0, all-zero key and nonce. Computed with
    /// an independent straight-line implementation of the ChaCha8 block
    /// function (no shared code with `refill`).
    #[test]
    fn matches_independent_block_computation() {
        fn reference_block_zero() -> [u32; 16] {
            let mut s: [u32; 16] = [
                0x6170_7865,
                0x3320_646E,
                0x7962_2D32,
                0x6B20_6574,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
            ];
            let init = s;
            fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
                s[a] = s[a].wrapping_add(s[b]);
                s[d] = (s[d] ^ s[a]).rotate_left(16);
                s[c] = s[c].wrapping_add(s[d]);
                s[b] = (s[b] ^ s[c]).rotate_left(12);
                s[a] = s[a].wrapping_add(s[b]);
                s[d] = (s[d] ^ s[a]).rotate_left(8);
                s[c] = s[c].wrapping_add(s[d]);
                s[b] = (s[b] ^ s[c]).rotate_left(7);
            }
            for _ in 0..4 {
                qr(&mut s, 0, 4, 8, 12);
                qr(&mut s, 1, 5, 9, 13);
                qr(&mut s, 2, 6, 10, 14);
                qr(&mut s, 3, 7, 11, 15);
                qr(&mut s, 0, 5, 10, 15);
                qr(&mut s, 1, 6, 11, 12);
                qr(&mut s, 2, 7, 8, 13);
                qr(&mut s, 3, 4, 9, 14);
            }
            for (w, i) in s.iter_mut().zip(init) {
                *w = w.wrapping_add(i);
            }
            s
        }

        let mut rng = ChaCha8Rng::from_seed([0u8; 32]);
        let expect = reference_block_zero();
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(rng.next_u32(), e, "word {i}");
        }
    }

    #[test]
    fn streams_are_reproducible_and_seed_sensitive() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let mut diff = 0;
        for _ in 0..256 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            if x != c.next_u64() {
                diff += 1;
            }
        }
        assert!(
            diff > 250,
            "seeds 42/43 produced suspiciously equal streams"
        );
    }

    #[test]
    fn clone_snapshots_position() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..21 {
            rng.next_u32();
        }
        let mut snap = rng.clone();
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), snap.next_u64());
        }
    }

    #[test]
    fn blocks_advance() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let first_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first_block, second_block);
        assert_eq!(rng.words_consumed(), 32);
    }

    #[test]
    fn set_block_pos_matches_sequential_stream() {
        // Random access must agree with sequential generation: seeking
        // to block k and drawing 16 words reproduces words 16k..16k+16
        // of the plain stream, for any visit order.
        let mut seq = ChaCha8Rng::seed_from_u64(77);
        let stream: Vec<u32> = (0..16 * 8).map(|_| seq.next_u32()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for &block in &[3u64, 0, 7, 1, 3] {
            rng.set_block_pos(block);
            assert_eq!(rng.block_pos(), block);
            for w in 0..16 {
                assert_eq!(
                    rng.next_u32(),
                    stream[block as usize * 16 + w],
                    "block {block} word {w}"
                );
            }
        }
        // And a fresh stream is at block 0.
        assert_eq!(ChaCha8Rng::seed_from_u64(77).block_pos(), 0);
    }

    #[test]
    fn key_words_from_u64_matches_seed_from_u64() {
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let mut a = ChaCha8Rng::seed_from_u64(seed);
            let mut b = ChaCha8Rng::from_key_words(key_words_from_u64(seed));
            assert_eq!(a.key_words(), b.key_words(), "seed {seed:#x}");
            for _ in 0..40 {
                assert_eq!(a.next_u32(), b.next_u32(), "seed {seed:#x}");
            }
        }
    }

    #[test]
    fn chacha8_block_matches_stream() {
        let key = key_words_from_u64(99);
        for block in [0u64, 1, 5, 1 << 40, u64::MAX] {
            let mut rng = ChaCha8Rng::from_key_words(key);
            rng.set_block_pos(block);
            let words = chacha8_block(&key, block);
            for (w, &e) in words.iter().enumerate() {
                assert_eq!(rng.next_u32(), e, "block {block} word {w}");
            }
        }
    }

    #[test]
    fn wide_blocks_match_scalar_at_every_width() {
        // 37 lanes: exercises full groups + the tail at every
        // supported width (two full 16-wide groups plus a 5-lane tail),
        // with a counter at the wrap boundary mixed in.
        let keys: Vec<[u32; 8]> = (0..37).map(key_words_from_u64).collect();
        let counters: Vec<u64> = (0..37u64)
            .map(|i| i.wrapping_mul(0x1234_5678_9ABC))
            .collect();
        let mut counters = counters;
        counters[7] = u64::MAX;
        let expect: Vec<[u32; HEAD_WORDS]> = keys
            .iter()
            .zip(&counters)
            .map(|(k, &c)| chacha8_block(k, c)[..HEAD_WORDS].try_into().unwrap())
            .collect();
        for width in WIDE_LANE_WIDTHS {
            let mut out = vec![[0u32; HEAD_WORDS]; keys.len()];
            chacha8_block_heads_at_width(width, &keys, &counters, &mut out);
            assert_eq!(out, expect, "width {width}");
        }
        let mut out = vec![[0u32; HEAD_WORDS]; keys.len()];
        chacha8_block_heads(&keys, &counters, &mut out);
        assert_eq!(out, expect, "dispatched width {}", wide_lanes());
    }

    #[test]
    fn heads_match_scalar_at_every_length_and_width() {
        // Every batch length 0–40 at every width: full passes, the
        // 8-lane remainder pass and each scalar tail length.
        for len in 0..=40u64 {
            let keys: Vec<[u32; 8]> = (0..len).map(|i| key_words_from_u64(i ^ len << 8)).collect();
            let counters: Vec<u64> = (0..len)
                .map(|i| i.wrapping_mul(0x9E37_79B9) ^ len)
                .collect();
            let expect: Vec<[u32; HEAD_WORDS]> = keys
                .iter()
                .zip(&counters)
                .map(|(k, &c)| chacha8_block(k, c)[..HEAD_WORDS].try_into().unwrap())
                .collect();
            for width in WIDE_LANE_WIDTHS {
                let mut out = vec![[0u32; HEAD_WORDS]; keys.len()];
                chacha8_block_heads_at_width(width, &keys, &counters, &mut out);
                assert_eq!(out, expect, "length {len} width {width}");
            }
        }
    }

    #[test]
    fn head_built_streams_match_sequential_streams() {
        // Streams built from a kernel-computed head must draw the words
        // of a lazily positioned stream — through the head, across the
        // cold completion of the block, and on into the next blocks —
        // including at the counter wrap edge.
        for (seed, pos) in [(1u64, 3u64), (2, 0), (3, 9), (6, u64::MAX)] {
            let key = key_words_from_u64(seed);
            let mut head = [[0u32; HEAD_WORDS]];
            chacha8_block_heads(&[key], &[pos], &mut head);
            let mut lazy = ChaCha8Rng::from_key_words(key);
            lazy.set_block_pos(pos);
            let mut built = ChaCha8Rng::from_block_head(key, pos, head[0]);
            assert_eq!(built.block_pos(), pos, "seed {seed}");
            for i in 0..48 {
                assert_eq!(built.next_u32(), lazy.next_u32(), "seed {seed} word {i}");
                assert_eq!(built.words_consumed(), lazy.words_consumed());
                assert_eq!(built.block_pos(), lazy.block_pos(), "seed {seed} word {i}");
            }
        }
    }

    #[test]
    fn head_built_streams_clone_and_reposition_exactly() {
        let key = key_words_from_u64(11);
        let head: [u32; HEAD_WORDS] = chacha8_block(&key, 4)[..HEAD_WORDS].try_into().unwrap();
        let mut rng = ChaCha8Rng::from_block_head(key, 4, head);
        rng.next_u32();
        // A snapshot taken inside the head completes its block on its
        // own, independently of the original.
        let mut snap = rng.clone();
        for _ in 0..20 {
            assert_eq!(rng.next_u32(), snap.next_u32());
        }
        // Repositioning drops the head state: the next draw is word 0 of
        // the target block, not a leftover head word.
        let mut rng = ChaCha8Rng::from_block_head(key, 4, head);
        rng.set_block_pos(2);
        let mut fresh = ChaCha8Rng::from_key_words(key);
        fresh.set_block_pos(2);
        for _ in 0..20 {
            assert_eq!(rng.next_u32(), fresh.next_u32());
        }
        // Both refilled the same block: now equal in state, too.
        assert_eq!(rng, fresh);
    }

    #[test]
    fn wide_lanes_is_supported_and_stable() {
        let w = wide_lanes();
        assert!(WIDE_LANE_WIDTHS.contains(&w));
        assert_eq!(w, wide_lanes());
    }

    #[test]
    fn unit_interval_mean_is_sane() {
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }
}
