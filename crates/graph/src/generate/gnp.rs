//! Erdős–Rényi random networks.
//!
//! The paper's §1.2: *"For random graphs, we use the directed version of
//! the standard model `G(n,p)`, where node `v` has an edge to node `w`
//! with probability `p`. Let `d = np` be the average in and out degree."*
//!
//! Sparse generation uses geometric skipping (Batagelj–Brandes): instead
//! of flipping `n(n−1)` coins, jump between successful pairs with
//! geometrically distributed gaps, giving `O(n + m)` expected time. This
//! matters: the experiment sweeps build thousands of graphs with
//! `n ≤ 2¹⁷`.
//!
//! # One batched skip walk
//!
//! Every `G(n, p)` in the workspace — [`gnp_directed`],
//! [`gnp_undirected`] and the implicit rows of
//! [`ImplicitGnp`](crate::ImplicitGnp) — runs the same walk,
//! `SkipWalk`. It reads its random words a batch at a time (the
//! generators through `RngCore::peek_u64s`, the implicit rows straight
//! from the wide ChaCha kernel), turns `SKIP_LANES` of them at once
//! into skips with `geometric_skips`, and emits the same slots, in the
//! same order, as the scalar walk it replaced:
//!
//! ```text
//! i = skip(x₀);  while i < slots { emit(i); i = i + 1 + skip(xₖ) }
//! skip(x) = ⌊ln(U) / ln(1 − p)⌋,  U = 1 − (x >> 11)·2⁻⁵³ ∈ [2⁻⁵³, 1]
//! ```
//!
//! with `ln` from libm and the quotient saturating at `u64::MAX`. A
//! generator's RNG ends at exactly the word where that walk left it:
//! the walk consumes only the words it used.
//!
//! **Why the batched skips are exact.** `geometric_skips` evaluates
//! `ln(U)` with a branch-free polynomial and multiplies by a cached
//! `1 / ln(1 − p)`, giving an approximate quotient `q′`. The scalar
//! expression gives `q = fl(ℓ / ln(1 − p))` with `ℓ` libm's `ln(U)`.
//! Relative to the exact quotient, three errors separate the two:
//!
//! * the polynomial: at most `LN_REL_ERR` = 2⁻⁵⁰ of `|ln U|`, from the
//!   fdlibm minimax bound (2⁻⁵⁸·⁴⁵) plus a few roundings, and checked
//!   against libm over every exponent by the kernel's unit tests;
//! * libm's `ln`: glibc documents at most 1 ulp on x86-64, ≤ 2⁻⁵² of
//!   the result;
//! * the division: one rounding in the scalar quotient, and two in the
//!   kernel's reciprocal and product, 3·2⁻⁵³ together.
//!
//! Their sum is below 2⁻⁴⁹·`q′`. A lane whose `q′` lies within
//! `SKIP_MARGIN`·`q′` = 2⁻³⁰·`q′` of an integer — 2¹⁹ ≈ 5·10⁵ times
//! that sum — or outside the fast range `0 ≤ q′ < 2⁵¹` is recomputed with the
//! scalar expression. Every other lane has no integer between `q′` and
//! `q`, so both floor to the same skip. Exactness rests on that bound,
//! not on matching libm's bits. The fallback fires on a few lanes per
//! million at the paper's `p = 8 ln n / n`, and on nearly every lane
//! once skips pass 2²⁹ (`p` below about 10⁻⁹), where the margin exceeds
//! one half.
//!
//! **No overflow in the walk.** `SkipWalk` counts the slots still
//! ahead instead of the slot index, and ends when a skip reaches them,
//! so no advance can wrap and none needs a saturating add, whatever the
//! skip (even `u64::MAX`) or the slot count.

use crate::generate::edge_capacity;
use crate::simd::VectorPath;
use crate::{Csr, DiGraph, NodeId};
use rand::Rng;
use rand_chacha::{BLOCK_WORDS, MAX_WIDE_LANES};

/// `ln(1 − p)`, the denominator of the skip, for `0 < p < 1`.
///
/// For `p ≤ 2⁻⁵⁴`, `1.0 - p` rounds to exactly `1.0` and its `ln` is
/// `0.0`, which turns every skip into 0 and the sample into the complete
/// graph; `ln_1p(−p)` keeps those `p` exact. It is used for that case
/// only: the two expressions differ in the last bits at ordinary `p`
/// (already at `p = 10⁻³`), and the committed results pin today's bits.
#[inline]
pub(crate) fn ln_1mp(p: f64) -> f64 {
    let q = 1.0 - p;
    if q == 1.0 {
        (-p).ln_1p()
    } else {
        q.ln()
    }
}

/// The skip one raw word draws, by the scalar expression: the gap to the
/// next success of a Bernoulli(`p`) sequence, `⌊ln(U) / ln(1−p)⌋` for
/// `U = 1 − (x >> 11)·2⁻⁵³ ∈ (0, 1]` (one minus the workspace's standard
/// `f64` draw), saturating at `u64::MAX`. `geometric_skips` falls back
/// to it.
#[inline]
pub(crate) fn skip_of_word(x: u64, log1mp: f64) -> u64 {
    // `1.0 - u` with `u` the standard draw lies in (0, 1], so `ln` is
    // finite & ≤ 0.
    let u: f64 = 1.0 - (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let skip = (u.ln() / log1mp).floor();
    if skip >= u64::MAX as f64 {
        u64::MAX
    } else {
        skip as u64
    }
}

/// Lanes per `geometric_skips` batch: wide enough that the polynomial's
/// long dependency chain (a division, then seven multiply–adds)
/// overlaps across lanes. At 32 lanes a skip takes ~3 ns on a 2-vCPU
/// AVX-512 Xeon, against ~14 ns for libm's `ln` and the divide.
pub(crate) const SKIP_LANES: usize = 32;

/// Bound on the polynomial `ln`'s error relative to `|ln U|` (see the
/// module docs).
#[cfg(test)]
pub(crate) const LN_REL_ERR: f64 = 1.0 / (1u64 << 50) as f64;

/// A lane whose approximate quotient lies within this fraction of
/// itself of an integer is recomputed by the scalar expression.
pub(crate) const SKIP_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// Approximate quotients outside `[0, FAST_MAX)` take the scalar
/// expression: the round-to-integer step below is exact only there.
const FAST_MAX: f64 = (1u64 << 51) as f64;

const TWO52: f64 = (1u64 << 52) as f64;
/// `TWO52.to_bits()`: `f64::from_bits(TWO52_BITS | k) == 2⁵² + k` for
/// `k < 2⁵²`.
const TWO52_BITS: u64 = 0x4330_0000_0000_0000;
/// `√2 / 2`'s bits: the exponent split below leaves the mantissa in
/// `[√2/2, √2)`.
const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
// ln 2 split so that `e · LN2_HI` is exact, and fdlibm's minimax
// coefficients for `ln((1 + s) / (1 − s)) − 2s` on `|s| ≤ 0.1716`
// (error ≤ 2⁻⁵⁸·⁴⁵), all as their exact bits.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);

/// `ln(U)` for the draw `U = 1 − (x >> 11)·2⁻⁵³`, branch-free and
/// within `LN_REL_ERR` of the exact value. Only integer and `f64`
/// add, multiply, divide and bit moves, so every lane of a batch
/// vectorizes (no `u64 → f64` conversion, no arithmetic 64-bit shift).
#[inline(always)]
pub(crate) fn ln_of_word(x: u64) -> f64 {
    // U, exactly: the 53-bit integer m converted in two exact parts.
    let m = x >> 11;
    let low = f64::from_bits(TWO52_BITS | (m & ((1 << 52) - 1))) - TWO52;
    let high = f64::from_bits(TWO52_BITS & (m >> 52).wrapping_neg());
    let u = 1.0 - (low + high) * (1.0 / (1u64 << 53) as f64);
    // U = 2^e · z with z ∈ [√2/2, √2) (musl's split). U ≥ 2⁻⁵³ keeps
    // e ≥ −54, so the biased exponent e + 64 shifts out logically.
    let ix = u.to_bits();
    let tmp = ix.wrapping_sub(SQRT_HALF_BITS);
    let e_biased = tmp.wrapping_add(64 << 52) >> 52;
    let e = f64::from_bits(TWO52_BITS | e_biased) - (TWO52 + 64.0);
    let z = f64::from_bits(ix.wrapping_sub(tmp & (0xFFF << 52)));
    // fdlibm: ln z = ln(1 + f) from s = f / (2 + f).
    let f = z - 1.0;
    let s = f / (2.0 + f);
    let s2 = s * s;
    let s4 = s2 * s2;
    let t1 = s4 * (LG2 + s4 * (LG4 + s4 * LG6));
    let t2 = s2 * (LG1 + s4 * (LG3 + s4 * (LG5 + s4 * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    e * LN2_HI - ((hfsq - (s * (hfsq + r) + e * LN2_LO)) - f)
}

/// The fast lane of `geometric_skips`: `(skip, fallback)`, where the
/// skip is exact unless `fallback` is set.
#[inline(always)]
fn approx_skip(x: u64, inv_log1mp: f64) -> (u64, bool) {
    let q = ln_of_word(x) * inv_log1mp;
    // Round to the nearest integer r; d = q − r is exact, and its sign
    // turns r into ⌊q⌋.
    let t = q + TWO52;
    let d = q - (t - TWO52);
    let skip = t.to_bits().wrapping_sub(TWO52_BITS) - u64::from(d < 0.0);
    // A NaN falls back too: `1 / ln(1 − p)` overflows to −∞ for
    // subnormal `p`, and `ln U = 0` times that is NaN.
    let fallback = !(0.0..FAST_MAX).contains(&q) | (d.abs() <= q * SKIP_MARGIN);
    (skip, fallback)
}

/// The fast pass over one batch: every lane's skip into `out`, and the
/// mask of lanes whose skip is not proven exact.
#[inline(always)]
fn approx_skips(words: &[u64; SKIP_LANES], inv_log1mp: f64, out: &mut [u64; SKIP_LANES]) -> u32 {
    let mut fallback = [false; SKIP_LANES];
    for l in 0..SKIP_LANES {
        (out[l], fallback[l]) = approx_skip(words[l], inv_log1mp);
    }
    let mut mask = 0;
    for (l, &f) in fallback.iter().enumerate() {
        mask |= u32::from(f) << l;
    }
    mask
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512dq")]
fn approx_skips_avx512(words: &[u64; SKIP_LANES], inv: f64, out: &mut [u64; SKIP_LANES]) -> u32 {
    approx_skips(words, inv, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn approx_skips_avx2(words: &[u64; SKIP_LANES], inv: f64, out: &mut [u64; SKIP_LANES]) -> u32 {
    approx_skips(words, inv, out)
}

/// [`approx_skips`] under `path`'s codegen. A path the host lacks runs
/// the portable code.
#[inline(always)]
fn approx_skips_on(
    path: VectorPath,
    words: &[u64; SKIP_LANES],
    inv: f64,
    out: &mut [u64; SKIP_LANES],
) -> u32 {
    match path {
        // SAFETY: the guard detected the target features.
        #[cfg(target_arch = "x86_64")]
        VectorPath::Avx512 if path.available() => unsafe { approx_skips_avx512(words, inv, out) },
        // SAFETY: the guard detected the target feature.
        #[cfg(target_arch = "x86_64")]
        VectorPath::Avx2 if path.available() => unsafe { approx_skips_avx2(words, inv, out) },
        _ => approx_skips(words, inv, out),
    }
}

/// The exact skip kernel: `out[l] = skip_of_word(words[l], log1mp)` for
/// every lane `l < lanes`, bit for bit (the argument is in the module
/// docs), with `inv_log1mp = 1 / log1mp`. Returns the mask of those
/// lanes that took the scalar fallback; the lanes from `lanes` on (a
/// short batch's padding) are neither recomputed nor flagged.
///
/// The approximate pass runs under `path`'s vector codegen (the walks
/// use the widest the host has); every path performs the same IEEE
/// operations (no fused multiply-add), so the approximation does not
/// depend on the path.
pub(crate) fn geometric_skips(
    path: VectorPath,
    words: &[u64; SKIP_LANES],
    lanes: usize,
    log1mp: f64,
    inv_log1mp: f64,
    out: &mut [u64; SKIP_LANES],
) -> u32 {
    let mask = approx_skips_on(path, words, inv_log1mp, out);
    debug_assert!((1..=SKIP_LANES).contains(&lanes), "{lanes} lanes");
    let mask = mask & (u32::MAX >> (SKIP_LANES - lanes));
    let mut rest = mask;
    while rest != 0 {
        let l = rest.trailing_zeros() as usize;
        out[l] = skip_of_word(words[l], log1mp);
        rest &= rest - 1;
    }
    mask
}

/// Words a generator's walk reads ahead at once: `MAX_WIDE_LANES`
/// ChaCha blocks, one pass of the widest keystream kernel.
const READ_AHEAD: usize = MAX_WIDE_LANES * BLOCK_WORDS / 2;

/// The geometric-skip walk over `slots` Bernoulli(`p`) slots, fed raw
/// words a batch at a time (see the module docs).
pub(crate) struct SkipWalk {
    path: VectorPath,
    log1mp: f64,
    inv_log1mp: f64,
    slots: u64,
    /// Slots not yet passed: the next success lies `skip` slots in.
    ahead: u64,
}

impl SkipWalk {
    /// A walk over `slots` slots with `log1mp = ln_1mp(p)`, `0 < p < 1`.
    #[inline]
    pub(crate) fn new(log1mp: f64, slots: u64) -> Self {
        SkipWalk {
            path: VectorPath::detect(),
            log1mp,
            inv_log1mp: 1.0 / log1mp,
            slots,
            ahead: slots,
        }
    }

    /// Walk on through `words`, calling `emit(slot)` for each success in
    /// ascending order. Returns how many words the walk used if it ended
    /// inside `words`, `None` if it needs more.
    #[inline(always)]
    pub(crate) fn feed<F: FnMut(u64)>(&mut self, words: &[u64], emit: &mut F) -> Option<usize> {
        let mut skips = [0u64; SKIP_LANES];
        let mut chunks = words.chunks_exact(SKIP_LANES);
        for (c, chunk) in chunks.by_ref().enumerate() {
            let chunk = chunk.try_into().expect("an exact chunk");
            geometric_skips(
                self.path,
                chunk,
                SKIP_LANES,
                self.log1mp,
                self.inv_log1mp,
                &mut skips,
            );
            if let Some(j) = self.step(&skips, emit) {
                return Some(c * SKIP_LANES + j);
            }
        }
        let tail = chunks.remainder();
        if tail.is_empty() {
            return None;
        }
        let (lanes, mut padded) = (tail.len(), [0u64; SKIP_LANES]);
        padded[..lanes].copy_from_slice(tail);
        geometric_skips(
            self.path,
            &padded,
            lanes,
            self.log1mp,
            self.inv_log1mp,
            &mut skips,
        );
        self.step(&skips[..lanes], emit)
            .map(|j| (words.len() - lanes) + j)
    }

    /// Advance over `skips`; `Some(words used)` when one ends the walk.
    #[inline(always)]
    fn step<F: FnMut(u64)>(&mut self, skips: &[u64], emit: &mut F) -> Option<usize> {
        for (j, &s) in skips.iter().enumerate() {
            if s >= self.ahead {
                return Some(j + 1);
            }
            self.ahead -= s;
            emit(self.slots - self.ahead);
            self.ahead -= 1;
        }
        None
    }
}

/// Run a `SkipWalk` on `rng`'s `u64` draws, reading them ahead in
/// batches and consuming exactly the words used.
#[inline]
fn walk_rng<R: Rng + ?Sized, F: FnMut(u64)>(rng: &mut R, log1mp: f64, slots: u64, mut emit: F) {
    let mut walk = SkipWalk::new(log1mp, slots);
    let mut words = [0u64; READ_AHEAD];
    loop {
        let k = rng.peek_u64s(&mut words);
        match walk.feed(&words[..k], &mut emit) {
            Some(used) => return rng.consume_u64s(used),
            None => rng.consume_u64s(k),
        }
    }
}

/// Directed `G(n, p)`: each ordered pair `(u, v)`, `u ≠ v`, carries the
/// edge `u → v` independently with probability `p`.
///
/// The skip walk streams straight into the out-CSR: one offset per row
/// and one 4-byte neighbour entry per edge, with no `(u, v)` pair list
/// and no in-view (that is built on first use, see [`DiGraph`]).
///
/// # Panics
/// Panics unless `0 ≤ p ≤ 1`.
pub fn gnp_directed<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> DiGraph {
    assert!((0.0..=1.0).contains(&p), "p = {p} out of [0,1]");
    assert!(n as u64 <= u64::from(NodeId::MAX), "n too large for NodeId");
    if n == 0 || p == 0.0 {
        return DiGraph::from_out_csr(Csr::from_parts(vec![0; n + 1], Vec::new()));
    }
    // Slots per row: row u holds the n − 1 targets v ≠ u.
    let stride = n as u64 - 1;
    let total_pairs = n as u64 * stride;
    // 5% headroom over the binomial mean, clamped (the same audit as the
    // geometric generator: at p near 1 the fudge factor pushed the
    // estimate past the pair count, and nothing capped the request).
    let mut neighbors: Vec<NodeId> =
        Vec::with_capacity(edge_capacity(n, total_pairs as f64 * p * 1.05));
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    offsets.push(0);
    if p >= 1.0 {
        for u in 0..n as NodeId {
            neighbors.extend((0..n as NodeId).filter(|&v| v != u));
            offsets.push(neighbors.len() as u32);
        }
    } else {
        // Linear index i over ordered non-diagonal pairs, row-major: slot
        // r = i − row_start of row u is target r if r < u else r + 1, so
        // targets ascend within a row and never equal u.
        let mut u: u64 = 0;
        let mut row_start: u64 = 0;
        walk_rng(rng, ln_1mp(p), total_pairs, |i| {
            while i - row_start >= stride {
                offsets.push(neighbors.len() as u32);
                row_start += stride;
                u += 1;
            }
            let r = i - row_start;
            neighbors.push((if r < u { r } else { r + 1 }) as NodeId);
        });
        offsets.resize(n + 1, neighbors.len() as u32);
    }
    assert!(
        neighbors.len() <= u32::MAX as usize,
        "edge count {} overflows u32 CSR offsets",
        neighbors.len()
    );
    DiGraph::from_out_csr(Csr::from_parts(offsets, neighbors))
}

/// Undirected `G(n, p)`: each unordered pair `{u, v}` carries *both*
/// directed edges with probability `p` (mutual communication ranges).
pub fn gnp_undirected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> DiGraph {
    assert!((0.0..=1.0).contains(&p), "p = {p} out of [0,1]");
    assert!(n as u64 <= u64::from(NodeId::MAX), "n too large for NodeId");
    if n < 2 || p == 0.0 {
        return DiGraph::from_sorted_unique_edges(n, Vec::new());
    }
    let total_pairs = (n as u64) * (n as u64 - 1) / 2;
    // Two directed edges per successful pair, 5% headroom, clamped.
    let mut edges: Vec<(NodeId, NodeId)> =
        Vec::with_capacity(edge_capacity(n, total_pairs as f64 * p * 2.1));
    if p >= 1.0 {
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        return DiGraph::from_sorted_unique_edges(n, edges);
    }
    // Linear index over pairs (u, v) with u < v, row-major:
    // row u holds n−1−u pairs.
    let mut u: u64 = 0;
    let mut row_start: u64 = 0; // linear index of pair (u, u+1)
    walk_rng(rng, ln_1mp(p), total_pairs, |i| {
        let mut row_len = n as u64 - 1 - u;
        while i >= row_start + row_len {
            row_start += row_len;
            u += 1;
            row_len = n as u64 - 1 - u;
        }
        let v = u + 1 + (i - row_start);
        edges.push((u as NodeId, v as NodeId));
        edges.push((v as NodeId, u as NodeId));
    });
    edges.sort_unstable();
    DiGraph::from_sorted_unique_edges(n, edges)
}

/// The scalar walk the batched one replaced, kept as the test oracle:
/// one libm `ln` per draw, the slot index advanced by saturating adds.
#[cfg(test)]
pub(crate) mod scalar {
    use super::{ln_1mp, skip_of_word};
    use crate::{DiGraph, NodeId};
    use rand::Rng;

    /// The `p` grid of the differential tests: the tiniest `p`, both
    /// sides of `2⁻⁵⁴` (where `1 − p` starts to round to 1), the paper's
    /// `d/n`, the middle, and the largest `p < 1`.
    pub(crate) fn p_grid(n: usize) -> Vec<f64> {
        let two_m54 = 1.0 / (1u64 << 54) as f64;
        vec![
            1e-300,
            two_m54.next_down(),
            two_m54,
            two_m54.next_up(),
            (8.0 * (n.max(2) as f64).ln() / n.max(1) as f64).min(0.9),
            0.5,
            1.0 - f64::EPSILON / 2.0,
        ]
    }

    /// One skip from one draw.
    pub(crate) fn geometric_skip<R: Rng + ?Sized>(rng: &mut R, log1mp: f64) -> u64 {
        skip_of_word(rng.next_u64(), log1mp)
    }

    /// Emit the successes among `slots` Bernoulli(`p`) slots.
    pub(crate) fn walk<R: Rng + ?Sized>(
        rng: &mut R,
        p: f64,
        slots: u64,
        mut emit: impl FnMut(u64),
    ) {
        let log1mp = ln_1mp(p);
        let mut i = geometric_skip(rng, log1mp);
        while i < slots {
            emit(i);
            i = i
                .saturating_add(1)
                .saturating_add(geometric_skip(rng, log1mp));
        }
    }

    /// Directed `G(n, p)` the pre-streaming way: every linear index
    /// split by `/` and `%` into a `(u, v)` pair, the pair list built
    /// through `DiGraph::from_edges` (sort, dedup, validate).
    pub(crate) fn gnp_directed<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> DiGraph {
        let mut edges = Vec::new();
        if n > 0 && p >= 1.0 {
            for u in 0..n as NodeId {
                edges.extend((0..n as NodeId).filter(|&v| v != u).map(|v| (u, v)));
            }
        } else if n > 0 && p > 0.0 {
            let stride = n as u64 - 1;
            walk(rng, p, n as u64 * stride, |i| {
                let u = (i / stride) as NodeId;
                let r = (i % stride) as NodeId;
                edges.push((u, if r < u { r } else { r + 1 }));
            });
        }
        DiGraph::from_edges(n, &edges)
    }

    /// Undirected `G(n, p)`: pair `k` of the `u < v` pairs, row-major,
    /// found by scanning the rows.
    pub(crate) fn gnp_undirected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> DiGraph {
        let mut edges = Vec::new();
        if n >= 2 && p > 0.0 {
            let pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId)
                .flat_map(|u| (u + 1..n as NodeId).map(move |v| (u, v)))
                .collect();
            let mut take = |i: u64| {
                let (u, v) = pairs[i as usize];
                edges.extend([(u, v), (v, u)]);
            };
            if p >= 1.0 {
                (0..pairs.len() as u64).for_each(&mut take);
            } else {
                walk(rng, p, pairs.len() as u64, take);
            }
        }
        DiGraph::from_edges(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_util::derive_rng;
    use rand::{RngCore, RngExt};

    #[test]
    fn p_zero_and_one_extremes() {
        let mut rng = derive_rng(1, b"gnp", 0);
        let g0 = gnp_directed(50, 0.0, &mut rng);
        assert_eq!(g0.m(), 0);
        let g1 = gnp_directed(50, 1.0, &mut rng);
        assert_eq!(g1.m(), 50 * 49);
        let u1 = gnp_undirected(30, 1.0, &mut rng);
        assert_eq!(u1.m(), 30 * 29);
        assert!(u1.is_symmetric());
    }

    #[test]
    fn directed_edge_count_concentrates() {
        // m ~ Binomial(n(n−1), p): mean 9900·0.3 = 2970, sd ≈ 45.6.
        let mut rng = derive_rng(2, b"gnp", 0);
        let n = 100;
        let p = 0.3;
        let g = gnp_directed(n, p, &mut rng);
        let mean = (n * (n - 1)) as f64 * p;
        let sd = (mean * (1.0 - p)).sqrt();
        let m = g.m() as f64;
        assert!(
            (m - mean).abs() < 6.0 * sd,
            "m = {m}, expected ≈ {mean} ± {sd}"
        );
    }

    #[test]
    fn undirected_is_symmetric_and_concentrated() {
        let mut rng = derive_rng(3, b"gnp", 0);
        let n = 120;
        let p = 0.2;
        let g = gnp_undirected(n, p, &mut rng);
        assert!(g.is_symmetric());
        let pairs = (n * (n - 1) / 2) as f64;
        let mean = 2.0 * pairs * p;
        let sd = 2.0 * (pairs * p * (1.0 - p)).sqrt();
        let m = g.m() as f64;
        assert!(
            (m - mean).abs() < 6.0 * sd,
            "m = {m}, expected ≈ {mean} ± {sd}"
        );
    }

    #[test]
    fn no_self_loops_generated() {
        let mut rng = derive_rng(4, b"gnp", 0);
        for g in [
            gnp_directed(64, 0.5, &mut rng),
            gnp_undirected(64, 0.5, &mut rng),
        ] {
            assert!(g.edges().all(|(u, v)| u != v));
        }
    }

    #[test]
    fn sparse_degrees_concentrate_around_d() {
        // d = np = 16; every node's out-degree should be within 6σ.
        let mut rng = derive_rng(5, b"gnp", 0);
        let n = 4096;
        let d = 16.0;
        let p = d / n as f64;
        let g = gnp_directed(n, p, &mut rng);
        let sd = (d * (1.0 - p)).sqrt();
        for u in 0..n as NodeId {
            let deg = g.out_degree(u) as f64;
            assert!(
                (deg - d).abs() < 8.0 * sd,
                "node {u} out-degree {deg} far from d = {d}"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g1 = gnp_directed(200, 0.05, &mut derive_rng(7, b"gnp", 0));
        let g2 = gnp_directed(200, 0.05, &mut derive_rng(7, b"gnp", 0));
        assert_eq!(g1, g2);
    }

    #[test]
    fn empty_n() {
        let mut rng = derive_rng(8, b"gnp", 0);
        assert_eq!(gnp_directed(0, 0.5, &mut rng).n(), 0);
        assert_eq!(gnp_undirected(1, 0.5, &mut rng).m(), 0);
    }

    /// Both generators ≡ their scalar-walk oracles — graph and the
    /// caller's RNG position — for one `(n, p, seed)`.
    fn assert_matches_scalar(n: usize, p: f64, seed: u64) {
        let mut batched_rng = derive_rng(seed, b"gnp-diff", n as u64);
        let mut scalar_rng = derive_rng(seed, b"gnp-diff", n as u64);
        let batched = gnp_directed(n, p, &mut batched_rng);
        let oracle = scalar::gnp_directed(n, p, &mut scalar_rng);
        assert_eq!(batched.out_csr(), oracle.out_csr(), "n {n} p {p}");
        assert_eq!(batched.in_csr(), oracle.in_csr(), "n {n} p {p}");
        assert_eq!(
            batched_rng.random::<u64>(),
            scalar_rng.random::<u64>(),
            "caller RNG position, n {n} p {p}"
        );
        let batched = gnp_undirected(n, p, &mut batched_rng);
        let oracle = scalar::gnp_undirected(n, p, &mut scalar_rng);
        assert_eq!(
            batched.out_csr(),
            oracle.out_csr(),
            "undirected, n {n} p {p}"
        );
        assert_eq!(
            batched_rng.random::<u64>(),
            scalar_rng.random::<u64>(),
            "caller RNG position, undirected, n {n} p {p}"
        );
    }

    #[test]
    fn streamed_build_matches_the_pair_list_reference() {
        let mut cases: Vec<(usize, f64, u64)> = Vec::new();
        for n in [0usize, 1, 2, 3] {
            for p in [0.0, 1.0, 0.05, 0.7] {
                cases.extend((0..4).map(|seed| (n, p, seed)));
            }
        }
        for n in [2usize, 5, 64, 300] {
            cases.extend(scalar::p_grid(n).into_iter().map(|p| (n, p, 1)));
        }
        let mut pick = derive_rng(12, b"gnp-diff-cases", 0);
        for k in 0..300u64 {
            let n = pick.random_range(0..400usize);
            let p = match k % 4 {
                0 => [0.0, 1.0][pick.random_range(0..2usize)],
                1 => (pick.random_range(1.0..16.0) / n.max(1) as f64).min(1.0),
                2 => pick.random_range(0.2..1.0),
                _ => pick.random::<f64>(),
            };
            cases.push((n, p, k));
        }
        for (n, p, seed) in cases {
            assert_matches_scalar(n, p, seed);
        }
    }

    /// Walks that end at every lane of a kernel batch, and on both
    /// sides of the read-ahead batch: `m` edges use `m + 1` words, and
    /// here `m + 1` spreads over about 95..160.
    #[test]
    fn walks_ending_at_every_batch_residue_match_the_scalar_walk() {
        let (n, p) = (52usize, 127.0 / 2652.0);
        let mut lanes = [false; SKIP_LANES];
        let mut sides = [false; 3];
        for seed in 0..2000u64 {
            let mut rng = derive_rng(seed, b"gnp-residue", 0);
            let words = gnp_directed(n, p, &mut rng).m() + 1;
            lanes[words % SKIP_LANES] = true;
            sides[(words.cmp(&READ_AHEAD) as i32 + 1) as usize] = true;
            assert_matches_scalar(n, p, seed);
        }
        assert_eq!(lanes, [true; SKIP_LANES], "a lane no walk ended at");
        assert_eq!(
            sides, [true; 3],
            "walks before, at and past {READ_AHEAD} words"
        );
    }

    /// The kernel ≡ the scalar expression on the edge words and on
    /// random words, over the `p` grid, on every vector path the host
    /// runs (the walks take only the widest).
    #[test]
    fn skip_kernel_matches_the_scalar_expression() {
        let paths = VectorPath::host_paths();
        let edge = [0u64, 1, (1 << 11) - 1, 1 << 11, u64::MAX, u64::MAX >> 1];
        let mut rng = derive_rng(15, b"skip-kernel", 0);
        for n in [2usize, 1 << 10, 1 << 17] {
            let subnormal = f64::from_bits(1);
            for p in scalar::p_grid(n).into_iter().chain([subnormal]) {
                let log1mp = ln_1mp(p);
                for round in 0..200 {
                    let mut words = [0u64; SKIP_LANES];
                    for (l, w) in words.iter_mut().enumerate() {
                        *w = if round == 0 && l < edge.len() {
                            edge[l]
                        } else {
                            rng.random::<u64>()
                        };
                    }
                    for &path in &paths {
                        let mut out = [0u64; SKIP_LANES];
                        geometric_skips(path, &words, SKIP_LANES, log1mp, 1.0 / log1mp, &mut out);
                        for l in 0..SKIP_LANES {
                            assert_eq!(
                                out[l],
                                skip_of_word(words[l], log1mp),
                                "{path:?} p {p} word {:#x}",
                                words[l]
                            );
                        }
                    }
                }
            }
        }
    }

    /// The kernel against the scalar expression on `words` words per `p`
    /// of the grid at `n = 2¹⁷`, drawn through the read-ahead, plus the
    /// edge words, on every vector path the host runs. The approximate
    /// pass alone must be exact on every lane it does not flag; a
    /// flagged lane must be near-integer (its approximate skip within
    /// one of the exact one) or outside the fast range, and the kernel's
    /// output — fallback included — must equal the scalar expression on
    /// every lane.
    fn kernel_differential(words: u64) {
        let paths = VectorPath::host_paths();
        let edge = [0u64, 1, (1 << 11) - 1, u64::MAX];
        for (k, p) in scalar::p_grid(1 << 17).into_iter().enumerate() {
            let log1mp = ln_1mp(p);
            let inv = 1.0 / log1mp;
            let mut rng = derive_rng(k as u64, b"skip-differential", 0);
            let (mut flagged, mut near_integer) = (0u64, 0u64);
            let mut batch = [0u64; SKIP_LANES];
            for b in 0..words.div_ceil(SKIP_LANES as u64) {
                let got = rng.peek_u64s(&mut batch);
                assert_eq!(got, SKIP_LANES, "read-ahead batches are block-aligned");
                rng.consume_u64s(got);
                if b == 0 {
                    batch[..edge.len()].copy_from_slice(&edge);
                }
                for &path in &paths {
                    let (mut approx, mut exact) = ([0u64; SKIP_LANES], [0u64; SKIP_LANES]);
                    let mask = approx_skips_on(path, &batch, inv, &mut approx);
                    geometric_skips(path, &batch, SKIP_LANES, log1mp, inv, &mut exact);
                    for l in 0..SKIP_LANES {
                        let (word, scalar) = (batch[l], skip_of_word(batch[l], log1mp));
                        assert_eq!(exact[l], scalar, "{path:?} p {p:e} word {word:#x}");
                        if mask >> l & 1 == 0 {
                            assert_eq!(approx[l], scalar, "{path:?} p {p:e} word {word:#x}");
                            continue;
                        }
                        flagged += 1;
                        if scalar < 1 << 51 {
                            assert!(
                                approx[l].abs_diff(scalar) <= 1,
                                "{path:?} p {p:e} word {word:#x}"
                            );
                            near_integer += 1;
                        }
                    }
                }
            }
            let lanes = words * paths.len() as u64;
            if p == scalar::p_grid(1 << 17)[4] {
                // The paper's p: about one lane in a million falls back.
                assert!(flagged * 1000 < lanes, "p {p:e}: {flagged} fallbacks");
            }
            println!(
                "p {p:e}: {flagged} of {lanes} lanes on {paths:?} fell back, \
                 {near_integer} of them in the fast range"
            );
        }
    }

    /// CI's cut of the release differential test.
    #[test]
    #[ignore = "release differential test; run with --ignored"]
    fn skip_kernel_matches_the_scalar_expression_on_1e6_words() {
        kernel_differential(1_000_000 / 7);
    }

    /// The full release differential test: 10⁸ words over the `p` grid.
    #[test]
    #[ignore = "release differential test (~10 s); run with --ignored"]
    fn skip_kernel_matches_the_scalar_expression_on_1e8_words() {
        kernel_differential(100_000_000 / 7 + 1);
    }

    /// The polynomial `ln` stays within `LN_REL_ERR` of libm (whose own
    /// error, ≤ 1 ulp, is part of the slack), from `U = 1` down to
    /// `U = 2⁻⁵³`: every word with one of the 53 mantissa-bit lengths,
    /// at both ends and in between.
    #[test]
    fn polynomial_ln_stays_within_its_error_bound() {
        let libm_slack = f64::EPSILON; // 2⁻⁵², one ulp relative
        let mut rng = derive_rng(16, b"ln-bound", 0);
        let mut worst = 0.0f64;
        for bits in 0..=53u32 {
            for k in 0..2000u64 {
                let m: u64 = match (bits, k) {
                    (0, _) => 0,
                    (_, 0) => 1 << (bits - 1),
                    (_, 1) => (1u64 << bits) - 1,
                    _ => (1 << (bits - 1)) | (rng.random::<u64>() >> (65 - bits).min(63)),
                };
                let x = m << 11;
                let u = 1.0 - m as f64 * (1.0 / (1u64 << 53) as f64);
                let (approx, libm) = (ln_of_word(x), u.ln());
                if libm == 0.0 {
                    assert_eq!(approx, 0.0);
                    continue;
                }
                let rel = ((approx - libm) / libm).abs();
                worst = worst.max(rel);
                assert!(
                    rel <= LN_REL_ERR + libm_slack,
                    "U {u:e}: relative error {rel:e}"
                );
            }
        }
        assert!(
            worst > 0.0 && worst <= LN_REL_ERR + libm_slack,
            "worst {worst:e}"
        );
    }

    /// The margin exceeds the three error terms by more than 10³: the
    /// polynomial's bound, libm's 1 ulp, and the three roundings of the
    /// two quotients.
    #[test]
    fn the_fallback_margin_covers_the_error_terms_a_thousandfold() {
        let division = 3.0 * f64::EPSILON / 2.0;
        let sum = LN_REL_ERR + f64::EPSILON + division;
        assert!(
            SKIP_MARGIN >= 1e3 * sum,
            "margin {SKIP_MARGIN:e} vs {sum:e}"
        );
    }

    /// A short batch's padding lanes are neither flagged nor recomputed.
    /// The walk pads with word 0, whose `q = −0` always flags, so without
    /// the mask every padding lane would pay a libm `ln`.
    #[test]
    fn padding_lanes_take_no_fallback() {
        let log1mp = ln_1mp(0.01);
        for path in VectorPath::host_paths() {
            let (words, mut out) = ([0u64; SKIP_LANES], [7u64; SKIP_LANES]);
            let all = geometric_skips(path, &words, SKIP_LANES, log1mp, 1.0 / log1mp, &mut out);
            assert_eq!(all, u32::MAX, "{path:?}: word 0 flags in every lane");
            let mut out = [7u64; SKIP_LANES];
            let mask = geometric_skips(path, &words, 3, log1mp, 1.0 / log1mp, &mut out);
            assert_eq!(mask, 0b111, "{path:?}");
            assert_eq!(out[..3], [0; 3], "{path:?}");
        }
    }

    /// Below `p = 2⁻⁵⁴` the naive `ln(1 − p)` is 0 and every skip was 0,
    /// so these `p` used to give the complete graph.
    #[test]
    fn tiny_p_gives_an_empty_graph_not_a_complete_one() {
        for p in [5e-17, 1e-300, f64::from_bits(1)] {
            assert!(ln_1mp(p) < 0.0, "p {p}");
            let mut rng = derive_rng(14, b"gnp", 0);
            assert_eq!(gnp_directed(64, p, &mut rng).m(), 0, "directed, p {p}");
            assert_eq!(gnp_undirected(64, p, &mut rng).m(), 0, "undirected, p {p}");
        }
        // The exact branch is taken only where 1 − p rounds to 1.
        assert_eq!(ln_1mp(1e-3), (1.0f64 - 1e-3).ln());
        assert_eq!(ln_1mp(0.5), 0.5f64.ln());
    }

    /// Scripted words for the skip walk: `0` draws `U = 1` (skip 0),
    /// `u64::MAX` draws the smallest `U` (a skip that saturates at
    /// tiny `p`).
    struct Script(Vec<u64>);

    impl rand::RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.pop().unwrap_or(u64::MAX)
        }
    }

    #[test]
    fn a_saturated_skip_ends_the_walk_instead_of_wrapping() {
        use scalar::geometric_skip;
        // First skip 0 (edge 0 → 1), second saturates at u64::MAX: the
        // old `i + (1 + skip)` wrapped to `i` and re-emitted that edge.
        let mut rng = Script(vec![u64::MAX, 0]);
        assert_eq!(
            geometric_skip(&mut Script(vec![u64::MAX]), ln_1mp(1e-300)),
            u64::MAX
        );
        let g = gnp_directed(4, 1e-300, &mut rng);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1)]);
        let mut rng = Script(vec![u64::MAX, 0]);
        let u = gnp_undirected(4, 1e-300, &mut rng);
        assert_eq!(u.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 0)]);
    }
}
