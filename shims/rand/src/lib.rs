//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the *minimal* random-number API it actually uses. The shape
//! mirrors `rand 0.9` (`random`, `random_bool`, `random_range`, the
//! `RngCore`/`SeedableRng` split) so a later swap to the real crate is a
//! one-line `Cargo.toml` change, with three caveats: the convenience
//! methods live on an extension trait named [`RngExt`] (with [`Rng`] a
//! blanket alias for "any [`RngCore`]" usable as a generic bound
//! `R: Rng + ?Sized`), [`RngCore`] carries a shim-only read-ahead
//! extension ([`RngCore::peek_u64s`] / [`RngCore::consume_u64s`], which
//! the `G(n, p)` generators read through), and seeded streams differ from
//! the real crates' (see [`SeedableRng::seed_from_u64`]), so recorded
//! experiment numbers would shift under a swap.
//!
//! Determinism contract: every method here is a pure function of the RNG
//! stream, so results are reproducible across runs, platforms and
//! `--release`/debug builds. Nothing reads OS entropy.

/// Object-safe source of raw randomness: a stream of `u32`/`u64` words.
///
/// Besides the `rand_core` surface, the trait carries a shim-only
/// extension (like [`RngExt`]): **read-ahead** for bulk consumers.
/// [`peek_u64s`](Self::peek_u64s) writes upcoming `next_u64` draws into
/// a caller buffer without consuming them, and
/// [`consume_u64s`](Self::consume_u64s) then consumes a prefix of them,
/// so a consumer can decide from a whole batch of words how many it
/// needed and still leave the stream exactly where that many
/// `next_u64` calls would. The provided defaults serve every generator;
/// a generator with a cheap multi-block keystream (`ChaCha8Rng`)
/// overrides both to read ahead a wide batch at once.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Read ahead: write the stream's next `u64` draws into a prefix of
    /// `out` and return its length — at least one when `out` is not
    /// empty, possibly fewer than `out.len()`. Word `t` is what the
    /// `t`-th following `next_u64` call would return.
    ///
    /// Contract: follow every non-empty peek with one
    /// [`consume_u64s`](Self::consume_u64s)`(j)`, `1 ≤ j ≤` the returned
    /// length, before any other draw. A consumer that asks for words
    /// always needs the first, so the default reads ahead that one word
    /// only, drawing it now; `consume_u64s(1)` then has nothing left to
    /// do.
    fn peek_u64s(&mut self, out: &mut [u64]) -> usize {
        match out.first_mut() {
            Some(first) => {
                *first = self.next_u64();
                1
            }
            None => 0,
        }
    }

    /// Consume the first `j` words of the preceding
    /// [`peek_u64s`](Self::peek_u64s), leaving the stream where `j`
    /// `next_u64` calls would have (see its contract). The default
    /// matches the default peek, which has already drawn its one word.
    fn consume_u64s(&mut self, j: usize) {
        debug_assert!(j <= 1, "consumed {j} words of a one-word peek");
    }

    /// Fill `dest` with random bytes (little-endian from `next_u64`).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn peek_u64s(&mut self, out: &mut [u64]) -> usize {
        (**self).peek_u64s(out)
    }
    fn consume_u64s(&mut self, j: usize) {
        (**self).consume_u64s(j)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Marker alias: the generic bound used throughout the workspace
/// (`fn gnp_directed<R: Rng + ?Sized>(…)`). Blanket-implemented for every
/// [`RngCore`], so any concrete generator qualifies.
pub trait Rng: RngCore {}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Raw seed type, e.g. `[u8; 32]` for ChaCha.
    type Seed: Default + AsMut<[u8]>;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64`, expanding it with SplitMix64.
    ///
    /// **Stream-compatibility caveat:** the real `rand_core`'s provided
    /// `seed_from_u64` uses a PCG32 expansion, not SplitMix64, so
    /// swapping the shims for the real crates changes every seeded
    /// stream (and with it any recorded experiment numbers), even
    /// though all call sites compile unchanged.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = (z as u32).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types samplable uniformly "from all representable values" (integers)
/// or from the unit interval `[0, 1)` (floats) — the `Standard`
/// distribution, as a plain trait.
pub trait StandardSample: Sized {
    /// Draw one value from `rng`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty => $via:ident),* $(,)?) => {$(
        impl StandardSample for $t {
            #[inline]
            fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}

impl_standard_uint!(
    u8 => next_u32,
    u16 => next_u32,
    u32 => next_u32,
    u64 => next_u64,
    usize => next_u64,
    i8 => next_u32,
    i16 => next_u32,
    i32 => next_u32,
    i64 => next_u64,
    isize => next_u64,
);

impl StandardSample for u128 {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl StandardSample for bool {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision (the standard
    /// `(x >> 11) * 2^-53` construction).
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges usable with [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Draw a value uniformly from `self`.
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                // Span must be computed in the unsigned type of the same
                // width: for signed ranges wider than half the domain
                // (e.g. `-100i8..100`) a signed subtraction wraps negative
                // and would sign-extend into a bogus near-2^64 bound.
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in random_range");
                let span = (end as $u).wrapping_sub(start as $u) as u64;
                if span >= <$u>::MAX as u64 {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_range_int!(
    u8 => u8,
    u16 => u16,
    u32 => u32,
    u64 => u64,
    usize => usize,
    i8 => u8,
    i16 => u16,
    i32 => u32,
    i64 => u64,
    isize => usize,
);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in random_range");
        let u = f64::standard_sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    #[inline]
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range in random_range");
        let u = f64::standard_sample(rng);
        start + u * (end - start)
    }
}

/// Uniform draw from `[0, bound)` by widening multiply with rejection
/// (Lemire's method) — unbiased and two instructions in the common case.
#[inline]
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = u128::from(x) * u128::from(bound);
        let lo = m as u64;
        if lo >= bound || lo >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
    }
}

/// A Bernoulli(p) distribution with the threshold comparison
/// precomputed — the repeated-draw form of
/// [`RngExt::random_bool`], **bit-compatible with it by construction**
/// on every generator: both consume exactly one `next_u64` and return
/// the same boolean for the same word.
///
/// `random_bool` computes `((x >> 11) as f64 * 2⁻⁵³) < p`. Every step
/// of that float path is exact (the 53-bit mantissa fits, and the scale
/// is a power of two), so the comparison is *equivalent to an integer
/// compare*: `(x >> 11) < ⌈p·2⁵³⌉`. `Bernoulli` stores that 53-bit
/// threshold split at the word boundary and resolves the draw on the
/// **leading 32 bits alone** — one integer compare, no int→float
/// conversion — falling back to the remaining 21 bits only when the
/// leading words tie (probability 2⁻³²). This is the "degraded
/// precision fast lane" of the batched decide kernel: same bits out,
/// a fraction of the per-draw cost in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bernoulli {
    /// `⌈p·2⁵³⌉ >> 21` — compared against the draw's high 32 bits.
    /// `u64` because p = 1 gives 2³², one past the u32 domain.
    hi: u64,
    /// `⌈p·2⁵³⌉ & 0x1F_FFFF` — the tie-breaking low 21 bits.
    lo: u32,
}

impl Bernoulli {
    /// Precompute the distribution for probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]` (same domain as
    /// [`RngExt::random_bool`]).
    #[inline]
    pub fn new(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "Bernoulli::new called with p = {p}, outside [0, 1]"
        );
        // Exact: p·2⁵³ rounds nothing (power-of-two scale), ceil is
        // exact, and the result ≤ 2⁵³ converts exactly.
        let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
        Bernoulli {
            hi: threshold >> 21,
            lo: (threshold & 0x1F_FFFF) as u32,
        }
    }

    /// Draw: `true` with probability `p`. Consumes exactly one
    /// `next_u64`, like `random_bool`, and agrees with it bit-for-bit
    /// on the same stream position.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        let x = rng.next_u64();
        let w1 = x >> 32;
        if w1 != self.hi {
            w1 < self.hi
        } else {
            (((x >> 11) & 0x1F_FFFF) as u32) < self.lo
        }
    }
}

/// Convenience sampling methods, blanket-implemented for every generator.
pub trait RngExt: RngCore {
    /// Draw a value of type `T` from the standard distribution
    /// (`[0, 1)` for floats, all values for integers).
    #[inline]
    fn random<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "random_bool called with p = {p}, outside [0, 1]"
        );
        f64::standard_sample(self) < p
    }

    /// Uniform draw from a range, e.g. `rng.random_range(0..n)` or
    /// `rng.random_range(0.25..=1.0)`.
    #[inline]
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_range(self)
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 so the stream looks uniform enough for the
            // statistical checks below.
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Counter(1);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Counter(2);
        for _ in 0..10_000 {
            let x = rng.random_range(10usize..20);
            assert!((10..20).contains(&x));
            let y = rng.random_range(0.5f64..=0.75);
            assert!((0.5..=0.75).contains(&y));
        }
    }

    #[test]
    fn bool_edge_probabilities() {
        let mut rng = Counter(3);
        for _ in 0..1_000 {
            assert!(!rng.random_bool(0.0));
            assert!(rng.random_bool(1.0));
        }
    }

    #[test]
    fn signed_ranges_wider_than_half_domain_stay_in_bounds() {
        // Regression: the span of `-100i8..100` overflows i8; it must be
        // computed in u8 before widening, or values escape the range.
        let mut rng = Counter(6);
        for _ in 0..5_000 {
            let x = rng.random_range(-100i8..100);
            assert!((-100..100).contains(&x), "{x} outside -100..100");
            let y = rng.random_range(-100i8..=100);
            assert!((-100..=100).contains(&y), "{y} outside -100..=100");
            let full = rng.random_range(i8::MIN..=i8::MAX);
            let _ = full; // full-domain inclusive must not panic/loop
        }
        let mut hit_neg = false;
        let mut hit_pos = false;
        for _ in 0..1_000 {
            let x = rng.random_range(-100i8..100);
            hit_neg |= x < 0;
            hit_pos |= x >= 0;
        }
        assert!(hit_neg && hit_pos, "signed range never crossed zero");
    }

    #[test]
    fn range_hits_every_value() {
        let mut rng = Counter(4);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.random_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn works_through_mut_ref_and_dyn() {
        fn take_generic<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.next_u64()
        }
        let mut rng = Counter(5);
        take_generic(&mut rng);
        let dynrng: &mut dyn RngCore = &mut rng;
        dynrng.next_u64();
    }

    #[test]
    fn default_read_ahead_is_the_next_word_and_consumes_it() {
        let mut peeking = Counter(9);
        let mut drawing = Counter(9);
        let mut out = [0u64; 4];
        for _ in 0..3 {
            assert_eq!(peeking.peek_u64s(&mut out), 1);
            assert_eq!(out[0], drawing.next_u64());
            peeking.consume_u64s(1);
        }
        assert_eq!(peeking.peek_u64s(&mut []), 0);
        assert_eq!(peeking.next_u64(), drawing.next_u64());
        // Forwarded through `&mut R`, as generic callers see it.
        let mut by_ref = &mut peeking;
        assert_eq!(<&mut Counter>::peek_u64s(&mut by_ref, &mut out), 1);
        <&mut Counter>::consume_u64s(&mut by_ref, 1);
        assert_eq!(out[0], drawing.next_u64());
    }

    #[test]
    fn bernoulli_is_bit_compatible_with_random_bool() {
        // The load-bearing property: for *any* p and any stream
        // position, `Bernoulli::new(p).sample(rng)` returns exactly what
        // `rng.random_bool(p)` would have, consuming the same one word.
        let mut ps = vec![
            0.0,
            1.0,
            0.5,
            0.05,
            1.0 / (1u64 << 53) as f64, // smallest non-trivial threshold
            f64::MIN_POSITIVE,         // threshold still ceils to 1
            1.0 - f64::EPSILON,
            0.2,
            0.3333333333333333,
        ];
        // Adversarial ps: thresholds landing exactly on the 21-bit
        // split, so the tie path and its boundaries all get exercised.
        for hi in [0u64, 1, 77, (1 << 32) - 1] {
            for lo in [0u64, 1, 0x1F_FFFF] {
                let t = (hi << 21) | lo;
                ps.push(t as f64 / (1u64 << 53) as f64);
            }
        }
        let mut seedgen = Counter(7);
        for p in ps {
            let d = Bernoulli::new(p);
            let seed = seedgen.next_u64();
            let mut a = Counter(seed);
            let mut b = Counter(seed);
            for i in 0..4_000 {
                assert_eq!(a.random_bool(p), d.sample(&mut b), "p = {p:e}, draw {i}");
            }
            assert_eq!(a.0, b.0, "p = {p:e}: streams desynchronised");
        }
    }

    #[test]
    fn bernoulli_degenerate_probabilities() {
        let mut rng = Counter(3);
        let always = Bernoulli::new(1.0);
        let never = Bernoulli::new(0.0);
        for _ in 0..1_000 {
            assert!(always.sample(&mut rng));
            assert!(!never.sample(&mut rng));
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bernoulli_rejects_out_of_range() {
        let _ = Bernoulli::new(1.5);
    }

    #[test]
    fn bernoulli_hits_the_expected_rate() {
        let mut rng = Counter(11);
        let d = Bernoulli::new(0.3);
        let n = 100_000;
        let hits = (0..n).filter(|_| d.sample(&mut rng)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate} far from 0.3");
    }
}
