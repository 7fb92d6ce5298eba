//! Exact, order-independent summation of `f64` values.
//!
//! [`ExactSum`] is a fixed-point superaccumulator: every finite `f64`
//! is decomposed into its integer mantissa and power-of-two exponent
//! and added — exactly, with no rounding — into a wide array of signed
//! integer limbs spanning the whole double range (from the smallest
//! subnormal, 2⁻¹⁰⁷⁴, past the largest normal, ~2¹⁰²⁴, with 2⁷⁷ of
//! count headroom on top). Because limb accumulation is plain integer
//! addition, it is associative and commutative: any partition of a
//! value set into partial sums, [`merge`](ExactSum::merge)d in any
//! order, holds exactly the same integer — and therefore
//! [`round`](ExactSum::round)s to exactly the same `f64` (correctly
//! rounded, ties-to-even).
//!
//! This is the merge algebra behind sharded Monte Carlo: each shard
//! accumulates its slice of samples into `ExactSum`s, serializes them
//! losslessly ([`to_hex`](ExactSum::to_hex)), and a merge of any shard
//! partition reproduces the single-process sums bit-for-bit. The same
//! accumulator also makes the single-process reference path
//! thread-count invariant by construction.
//!
//! Non-finite inputs (NaN, ±∞) poison the accumulator — a poisoned sum
//! rounds to NaN and stays poisoned through merges, so a shard that
//! produced garbage cannot silently launder it into a finite total.
//!
//! # Text form
//!
//! A poisoned sum is written `nan` and a zero sum `0`. Any other sum is
//! `[-]<m>p<k>`: the magnitude in units of 2⁻¹⁰⁷⁴ is the lowercase hex
//! digit string `m`, which has no leading and no trailing `0`, followed
//! by `k` zero digits, and `k` is written in decimal without leading
//! zeros. So `a6f69250c045p253` is 0xa6f69250c045 · 16²⁵³ · 2⁻¹⁰⁷⁴. A
//! sum of doubles has only as many significant digits as its inputs
//! span, a few dozen for a shard's statistics, where the whole
//! fixed-point range is 544 digits. Each value has exactly one string.
//! [`from_hex`](ExactSum::from_hex) accepts only that form and refuses
//! `len(m) + k > 544`, a magnitude of 2¹¹⁰² or more: every accepted sum
//! then fits the 68 limbs with a top limb below 2³², so a merge of fewer
//! than 2³¹ accepted sums cannot overflow the signed top limb.

use std::fmt::Write as _;

/// Number of 2³²-weighted limbs. Limb `k` carries weight
/// `2^(32k − 1074)`; 68 limbs span bit positions 0..2175, i.e. values
/// up to 2¹¹⁰¹ — max-magnitude doubles (2¹⁰²⁴) times 2⁷⁷ of headroom.
const LIMBS: usize = 68;

/// Bit position of the binary point offset: input bit of absolute
/// exponent `q` lands at limb-array bit position `q + 1074`.
const BIAS: i64 = 1074;

/// How many unpropagated adds are allowed before a carry pass. Each
/// add deposits < 2³² per limb, so 2²⁴ adds stay below 2⁵⁶ ≪ i64::MAX;
/// a [`ExactSum::merge`] of two sums just under the limit stays below
/// 2⁵⁷.
const PENDING_MAX: u32 = 1 << 24;

/// Most hex digits a [`ExactSum::from_hex`] magnitude may have: the 68
/// limbs of 32 bits, so every accepted magnitude is below 2¹¹⁰².
const HEX_DIGITS: usize = 8 * LIMBS;

/// Exact fixed-point accumulator for `f64` sums (see module docs).
#[derive(Debug, Clone)]
pub struct ExactSum {
    /// Signed limbs; limb `k` has weight `2^(32k − 1074)`. Between
    /// carry passes limbs may hold arbitrary signed partials; after
    /// [`Self::propagate`] limbs `0..LIMBS-1` are in `[0, 2³²)` and the
    /// top limb carries the sign.
    limbs: [i64; LIMBS],
    /// Adds since the last carry propagation: every limb below the top
    /// stays within `(pending + 1) · 2³²` in magnitude.
    pending: u32,
    /// Set when a non-finite value was added; sticky across merges.
    poisoned: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl ExactSum {
    /// A zero accumulator.
    #[must_use]
    pub fn new() -> Self {
        ExactSum {
            limbs: [0i64; LIMBS],
            pending: 0,
            poisoned: false,
        }
    }

    /// Accumulates every value of `values` (convenience constructor).
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        let mut s = ExactSum::new();
        for &v in values {
            s.add(v);
        }
        s
    }

    /// Adds `x` exactly. Non-finite `x` poisons the accumulator.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.poisoned = true;
            return;
        }
        let bits = x.to_bits();
        let exp_field = ((bits >> 52) & 0x7FF) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        if exp_field == 0 && frac == 0 {
            return; // ±0 contributes nothing
        }
        // value = mantissa × 2^exp2, mantissa < 2^53
        let mantissa = if exp_field > 0 {
            frac | (1u64 << 52)
        } else {
            frac
        };
        let exp2 = if exp_field > 0 { exp_field } else { 1 } - 1075;
        let offset = exp2 + BIAS; // 0..=2045
        let limb = (offset / 32) as usize;
        let shift = (offset % 32) as u32;
        let wide = u128::from(mantissa) << shift; // < 2^85, 3 chunks
        let negative = bits >> 63 == 1;
        for c in 0..3 {
            let chunk = ((wide >> (32 * c)) & 0xFFFF_FFFF) as i64;
            if negative {
                self.limbs[limb + c] -= chunk;
            } else {
                self.limbs[limb + c] += chunk;
            }
        }
        self.pending += 1;
        if self.pending >= PENDING_MAX {
            self.propagate();
        }
    }

    /// Adds another accumulator into this one — the exact integer sum,
    /// so merging is associative and commutative. Poison is sticky.
    ///
    /// The limbs add as they are: `other`'s partials count as its
    /// pending adds plus one, and a carry pass runs only once the total
    /// reaches the limit.
    pub fn merge(&mut self, other: &ExactSum) {
        for (mine, theirs) in self.limbs.iter_mut().zip(&other.limbs) {
            *mine += theirs;
        }
        self.pending += other.pending + 1;
        self.poisoned |= other.poisoned;
        if self.pending >= PENDING_MAX {
            self.propagate();
        }
    }

    /// Carry pass: canonicalizes limbs `0..LIMBS-1` into `[0, 2³²)`,
    /// pushing carries upward; the top limb stays signed and carries
    /// the overall sign of the value.
    fn propagate(&mut self) {
        const BASE: i64 = 1 << 32;
        let mut carry = 0i64;
        for k in 0..LIMBS - 1 {
            let v = self.limbs[k] + carry;
            let low = v.rem_euclid(BASE);
            carry = (v - low) >> 32;
            self.limbs[k] = low;
        }
        self.limbs[LIMBS - 1] += carry;
        self.pending = 0;
    }

    /// Sign and base-2³² magnitude chunks (little-endian, one extra
    /// chunk for the top limb's high half). Requires propagated limbs.
    fn sign_magnitude(&self) -> (bool, [u64; LIMBS + 1]) {
        let negative = self.limbs[LIMBS - 1] < 0;
        let mut mag = [0u64; LIMBS + 1];
        if negative {
            let mut borrow = 0i64;
            for (m, &limb) in mag.iter_mut().zip(&self.limbs[..LIMBS - 1]) {
                let v = -limb - borrow;
                if v < 0 {
                    *m = (v + (1i64 << 32)) as u64;
                    borrow = 1;
                } else {
                    *m = v as u64;
                    borrow = 0;
                }
            }
            mag[LIMBS - 1] = (-self.limbs[LIMBS - 1] - borrow) as u64;
        } else {
            for (m, &limb) in mag.iter_mut().zip(&self.limbs) {
                *m = limb as u64;
            }
        }
        mag[LIMBS] = mag[LIMBS - 1] >> 32;
        mag[LIMBS - 1] &= 0xFFFF_FFFF;
        (negative, mag)
    }

    /// The correctly rounded (nearest, ties-to-even) `f64` value of the
    /// exact sum. NaN when poisoned; ±∞ when the exact sum overflows
    /// the double range.
    #[must_use]
    pub fn round(&self) -> f64 {
        if self.poisoned {
            return f64::NAN;
        }
        let mut norm = self.clone();
        norm.propagate();
        let (negative, mag) = norm.sign_magnitude();
        // Most significant set bit position in the chunk array.
        let top_chunk = match (0..=LIMBS).rev().find(|&k| mag[k] != 0) {
            Some(k) => k,
            None => return 0.0,
        };
        let p = 32 * top_chunk as i64 + (63 - i64::from(mag[top_chunk].leading_zeros()));
        let signed = |v: f64| if negative { -v } else { v };
        if p <= 52 {
            // Fits in ≤ 53 bits at the bottom: exactly representable
            // as an integer multiple of 2^-1074.
            let int = mag[1] << 32 | mag[0];
            return signed(int as f64 * pow2(-1074));
        }
        let bit = |i: i64| -> u64 {
            if i < 0 {
                0
            } else {
                (mag[(i / 32) as usize] >> (i % 32)) & 1
            }
        };
        // Top 53 bits [p-52 ..= p], guard bit p-53, sticky below.
        let mut mant: u64 = 0;
        for i in (p - 52..=p).rev() {
            mant = mant << 1 | bit(i);
        }
        let guard = bit(p - 53);
        let sticky = {
            let lo = p - 53; // strictly-below-guard bits are [0, lo)
            let full_chunks = (lo / 32).max(0) as usize;
            let in_chunk = (lo % 32) as u32;
            let partial = if lo > 0 && in_chunk > 0 {
                mag[full_chunks] & ((1u64 << in_chunk) - 1) != 0
            } else {
                false
            };
            partial || mag[..full_chunks.min(LIMBS + 1)].iter().any(|&c| c != 0)
        };
        let mut exp_top = p - BIAS; // exponent of the leading bit
        if guard == 1 && (sticky || mant & 1 == 1) {
            mant += 1;
            if mant == 1u64 << 53 {
                mant >>= 1;
                exp_top += 1;
            }
        }
        if exp_top > 1023 {
            return signed(f64::INFINITY);
        }
        signed(mant as f64 * pow2(exp_top - 52))
    }

    /// Canonical lossless serialization: `"nan"` when poisoned, `"0"`
    /// for a zero sum, else `[-]<m>p<k>` — the significant lowercase hex
    /// digits `m` of the magnitude in units of 2⁻¹⁰⁷⁴ and the decimal
    /// count `k` of the zero digits dropped below them (see the module
    /// docs). Two accumulators holding the same exact value serialize
    /// identically regardless of the order or partition their inputs
    /// arrived in.
    #[must_use]
    pub fn to_hex(&self) -> String {
        if self.poisoned {
            return "nan".to_string();
        }
        let mut norm = self.clone();
        norm.propagate();
        let (negative, mag) = norm.sign_magnitude();
        let Some(top) = (0..=LIMBS).rev().find(|&k| mag[k] != 0) else {
            return "0".to_string();
        };
        let low = (0..=top)
            .find(|&k| mag[k] != 0)
            .expect("chunk `top` is nonzero");
        // Whole zero digits at the bottom of the lowest nonzero chunk.
        let zeros = (mag[low].trailing_zeros() / 4) as usize;
        let mut out = String::with_capacity(16 + 8 * (top - low + 1));
        if negative {
            out.push('-');
        }
        if top == low {
            let _ = write!(out, "{:x}", mag[low] >> (4 * zeros));
        } else {
            let _ = write!(out, "{:x}", mag[top]);
            for &chunk in mag[low + 1..top].iter().rev() {
                let _ = write!(out, "{chunk:08x}");
            }
            let _ = write!(out, "{:0w$x}", mag[low] >> (4 * zeros), w = 8 - zeros);
        }
        let _ = write!(out, "p{}", 8 * low + zeros);
        out
    }

    /// Parses a [`to_hex`](Self::to_hex) string back into an exact
    /// accumulator. Accepts exactly the canonical form — `nan`, `0`, or
    /// `[-]<m>p<k>` with `m` lowercase hex without leading or trailing
    /// `0` and `k` decimal without leading zeros — and returns `None`
    /// for anything else, including `len(m) + k > 544` (a magnitude of
    /// 2¹¹⁰² or more, which merged sums could overflow).
    #[must_use]
    pub fn from_hex(s: &str) -> Option<ExactSum> {
        let mut sum = ExactSum::new();
        match s {
            "nan" => {
                sum.poisoned = true;
                return Some(sum);
            }
            "0" => return Some(sum),
            _ => {}
        }
        let (negative, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        let (digits, dropped) = body.split_once('p')?;
        let digits = digits.as_bytes();
        if digits.is_empty() || digits[0] == b'0' || digits[digits.len() - 1] == b'0' {
            return None;
        }
        if dropped.is_empty()
            || !dropped.bytes().all(|b| b.is_ascii_digit())
            || (dropped.len() > 1 && dropped.starts_with('0'))
        {
            return None;
        }
        let dropped: usize = dropped.parse().ok()?;
        if dropped > HEX_DIGITS || digits.len() > HEX_DIGITS - dropped {
            return None;
        }
        for (i, &b) in digits.iter().rev().enumerate() {
            let nibble = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => return None,
            };
            let pos = dropped + i;
            sum.limbs[pos / 8] |= i64::from(nibble) << (4 * (pos % 8));
        }
        if negative {
            // Negated chunks are partials like one pending add's; the
            // next carry pass (or normalising reader) settles them.
            for limb in &mut sum.limbs {
                *limb = -*limb;
            }
            sum.pending = 1;
        }
        Some(sum)
    }
}

impl PartialEq for ExactSum {
    /// Exact-value equality (not rounded-f64 equality). Poisoned sums
    /// compare equal to each other, like a quiet NaN payload.
    fn eq(&self, other: &Self) -> bool {
        let mut a = self.clone();
        let mut b = other.clone();
        a.propagate();
        b.propagate();
        a.poisoned == b.poisoned && a.limbs == b.limbs
    }
}

/// `2^e` for `e ∈ [-1074, 1023]`, exact (subnormal below −1022).
fn pow2(e: i64) -> f64 {
    debug_assert!((-1074..=1023).contains(&e));
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (e + 1074))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn round_sum(values: &[f64]) -> f64 {
        ExactSum::from_values(values).round()
    }

    #[test]
    fn single_values_round_trip_exactly() {
        for &v in &[
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            std::f64::consts::PI,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324, // min subnormal
            -5e-324,
            1.5e308,
        ] {
            let got = round_sum(&[v]);
            assert_eq!(got, v, "v={v:e}");
            if v != 0.0 {
                assert_eq!(got.to_bits(), v.to_bits(), "v={v:e}");
            }
        }
        // Signed zero: an empty/zero sum rounds to +0.0 by convention.
        assert_eq!(round_sum(&[-0.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        assert_eq!(round_sum(&[1e16, 1.0, -1e16]), 1.0);
        assert_eq!(round_sum(&[1e300, 1e-300, -1e300]), 1e-300);
        assert_eq!(
            round_sum(&[f64::MAX, f64::MIN_POSITIVE, -f64::MAX]),
            f64::MIN_POSITIVE
        );
        let x = 1.2345678e9;
        assert_eq!(round_sum(&[x, -x]), 0.0);
    }

    #[test]
    fn pairwise_sum_matches_ieee_addition() {
        // IEEE addition is correctly rounded, so for two finite values
        // the exact sum rounded to nearest must equal `a + b`.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xE5AC7);
        for _ in 0..4000 {
            let a = (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-300..300));
            let b = (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-300..300));
            let expect = a + b;
            if !expect.is_finite() {
                continue;
            }
            assert_eq!(
                round_sum(&[a, b]).to_bits(),
                expect.to_bits(),
                "a={a:e} b={b:e}"
            );
        }
    }

    #[test]
    fn partition_and_order_invariance() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2015);
        let values: Vec<f64> = (0..257)
            .map(|_| (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-30..30)))
            .collect();
        let reference = ExactSum::from_values(&values);
        for &parts in &[1usize, 2, 3, 7, 31] {
            let mut shards: Vec<ExactSum> = (0..parts).map(|_| ExactSum::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                shards[i % parts].add(v);
            }
            // Merge in reverse order to stress commutativity too.
            let mut merged = ExactSum::new();
            for shard in shards.iter().rev() {
                merged.merge(shard);
            }
            assert_eq!(merged, reference, "parts={parts}");
            assert_eq!(merged.round().to_bits(), reference.round().to_bits());
            assert_eq!(merged.to_hex(), reference.to_hex());
            // The same partials as a merge reads them off packets:
            // decoded (negative ones with unpropagated limbs) and merged
            // without a carry pass in between.
            let mut decoded = ExactSum::new();
            for shard in &shards {
                decoded.merge(&ExactSum::from_hex(&shard.to_hex()).expect("canonical"));
            }
            assert!(decoded.pending > 0, "parts={parts}: no carry pass ran");
            assert_eq!(decoded, reference, "parts={parts}, decoded");
            assert_eq!(decoded.round().to_bits(), reference.round().to_bits());
            assert_eq!(decoded.to_hex(), reference.to_hex());
        }
        // Full reversal of the input order.
        let mut reversed = ExactSum::new();
        for &v in values.iter().rev() {
            reversed.add(v);
        }
        assert_eq!(reversed, reference);
    }

    #[test]
    fn hex_round_trip_preserves_exact_value() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut sum = ExactSum::new();
        for _ in 0..100 {
            sum.add((rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-200..200)));
        }
        let hex = sum.to_hex();
        let back = ExactSum::from_hex(&hex).expect("canonical hex parses");
        assert_eq!(back, sum);
        assert_eq!(back.to_hex(), hex);
        assert_eq!(back.round().to_bits(), sum.round().to_bits());
        // Negative magnitude round trip.
        let neg = ExactSum::from_values(&[-3.25, -1e-30]);
        assert_eq!(ExactSum::from_hex(&neg.to_hex()).unwrap(), neg);
        // Zero and nan forms.
        assert_eq!(ExactSum::new().to_hex(), "0");
        assert_eq!(ExactSum::from_values(&[2.5, -2.5]).to_hex(), "0");
        assert_eq!(ExactSum::from_hex("0").unwrap(), ExactSum::new());
        assert_eq!(ExactSum::from_hex("nan").unwrap().to_hex(), "nan");
    }

    #[test]
    fn hex_keeps_only_the_significant_digits() {
        // 1 = 2^1074 units = 4 · 16^268; 0.75 = 3 · 2^1072 = 3 · 16^268;
        // MAX = (2^53 − 1) · 2^2045 units = (2^54 − 2) · 16^511.
        for (values, text) in [
            (&[1.0][..], "4p268"),
            (&[-0.5], "-2p268"),
            (&[0.75], "3p268"),
            (&[5e-324], "1p0"),
            (&[-5e-324, -5e-324, -5e-324], "-3p0"),
            (&[1.0, 5e-324], &*format!("4{}1p0", "0".repeat(267))),
            (&[f64::MAX], &*format!("3{}ep511", "f".repeat(12))),
        ] {
            let sum = ExactSum::from_values(values);
            assert_eq!(sum.to_hex(), text, "{values:?}");
            assert_eq!(ExactSum::from_hex(text).unwrap(), sum, "{text}");
        }
    }

    #[test]
    fn malformed_hex_is_rejected() {
        let too_wide = format!("1{}p0", "f".repeat(HEX_DIGITS));
        let too_shifted = format!("1p{HEX_DIGITS}");
        let old_fixed_point = format!("4{}", "0".repeat(268));
        for bad in [
            "",
            "-",
            "0x12",
            "12g4",
            "--3",
            "p3",
            "1p",
            "-p3",
            "1p-3",
            "1p+3",
            "01p0",
            "10p0",
            "0p4",
            "-0",
            "-0p0",
            "A1p0",
            "1P0",
            "1p03",
            "1p00",
            " 1p0",
            "1p0 ",
            "1 p0",
            "1p 0",
            "1p2p3",
            "-nan",
            "NaN",
            "1p99999999999999999999",
            &too_wide,
            &too_shifted,
            "3ff",
            &old_fixed_point,
            &format!("-{old_fixed_point}"),
        ] {
            assert!(ExactSum::from_hex(bad).is_none(), "accepted {bad:?}");
        }
        // The widest accepted magnitudes, either way round.
        for good in [
            format!("{}p0", "f".repeat(HEX_DIGITS)),
            format!("-1p{}", HEX_DIGITS - 1),
        ] {
            let sum = ExactSum::from_hex(&good).expect("widest magnitude parses");
            assert_eq!(sum.to_hex(), good);
        }
    }

    #[test]
    fn widest_accepted_sums_merge_exactly() {
        // 2 · (16^544 − 1) = 0x1fff…fe with 545 digits: the merge holds
        // it exactly although no single accepted string can.
        let max = ExactSum::from_hex(&format!("{}p0", "f".repeat(HEX_DIGITS))).unwrap();
        let twice = format!("1{}e", "f".repeat(HEX_DIGITS - 1));
        let mut sum = max.clone();
        sum.merge(&max);
        assert_eq!(sum.to_hex(), format!("{twice}p0"));
        assert_eq!(sum.round(), f64::INFINITY);
        let min = ExactSum::from_hex(&format!("-{}p0", "f".repeat(HEX_DIGITS))).unwrap();
        let mut neg = min.clone();
        neg.merge(&min);
        assert_eq!(neg.to_hex(), format!("-{twice}p0"));
        assert_eq!(neg.round(), f64::NEG_INFINITY);
        neg.merge(&max);
        neg.merge(&max);
        assert_eq!(neg.to_hex(), "0");
        // Many of them still add up exactly: 1000 · (16^544 − 1).
        let mut many = ExactSum::new();
        for _ in 0..1000 {
            many.merge(&max);
        }
        let mut expect = ExactSum::new();
        expect.limbs[LIMBS - 1] = 1000 << 32;
        expect.limbs[0] = -1000;
        assert_eq!(many, expect);
    }

    #[test]
    fn merge_at_the_pending_limit_is_exact() {
        // Two sums, each at PENDING_MAX − 1 adds with every limb at the
        // edge of its bound: the same values as `a` and `b`, held as
        // partials that carry (PENDING_MAX − 1) · 2³² into each limb and
        // take it back out of the next one.
        let a = ExactSum::from_values(&[1.5e300, -2.25e-300, 7.0, -0.1]);
        let b = ExactSum::from_values(&[-3.5e200, 4.0e-310, 1e10]);
        let stretched = |sum: &ExactSum, sign: i64| {
            let mut s = sum.clone();
            s.propagate();
            let c = sign * i64::from(PENDING_MAX - 1);
            for k in 0..LIMBS - 1 {
                s.limbs[k] += c << 32;
                s.limbs[k + 1] -= c;
            }
            s.pending = PENDING_MAX - 1;
            assert_eq!(&s, sum, "stretching keeps the value");
            s
        };
        let mut expect = a.clone();
        expect.merge(&b);
        for (sa, sb) in [(1, 1), (1, -1), (-1, 1), (-1, -1)] {
            let mut merged = stretched(&a, sa);
            merged.merge(&stretched(&b, sb));
            assert_eq!(merged.pending, 0, "the limit forces a carry pass");
            assert_eq!(merged, expect);
            assert_eq!(merged.to_hex(), expect.to_hex());
            assert_eq!(merged.round().to_bits(), (1.5e300f64 - 3.5e200).to_bits());
        }
    }

    #[test]
    fn poison_is_sticky_and_merges_sticky() {
        let mut sum = ExactSum::new();
        sum.add(1.0);
        sum.add(f64::INFINITY);
        assert_eq!(sum.to_hex(), "nan");
        assert!(sum.round().is_nan());
        let mut clean = ExactSum::from_values(&[2.0]);
        clean.merge(&sum);
        assert!(clean.round().is_nan());
        assert_eq!(clean.to_hex(), "nan");
        let mut nan_in = ExactSum::new();
        nan_in.add(f64::NAN);
        assert_eq!(nan_in.to_hex(), "nan");
    }

    #[test]
    fn overflowing_exact_sum_rounds_to_infinity() {
        let sum = ExactSum::from_values(&[f64::MAX, f64::MAX, f64::MAX]);
        assert_eq!(sum.round(), f64::INFINITY);
        let neg = ExactSum::from_values(&[f64::MIN, f64::MIN, f64::MIN]);
        assert_eq!(neg.round(), f64::NEG_INFINITY);
        // But MAX + MAX - MAX is exactly MAX again: no sticky overflow.
        let back = ExactSum::from_values(&[f64::MAX, f64::MAX, -f64::MAX]);
        assert_eq!(back.round(), f64::MAX);
    }

    #[test]
    fn many_adds_trigger_carry_propagation_safely() {
        // Enough adds of the same magnitude to exercise the pending
        // carry logic without tripping the 2^24 threshold cheaply:
        // force propagation directly and compare against f64 math that
        // happens to be exact (powers of two).
        let mut sum = ExactSum::new();
        for _ in 0..100_000 {
            sum.add(0.5);
        }
        assert_eq!(sum.round(), 50_000.0);
        let mut signed = ExactSum::new();
        for i in 0..10_000 {
            signed.add(if i % 2 == 0 { 0.25 } else { -0.25 });
        }
        assert_eq!(signed.round(), 0.0);
    }

    #[test]
    fn subnormal_accumulation_is_exact() {
        let tiny = 5e-324; // one ulp at the very bottom
        let sum = ExactSum::from_values(&[tiny; 7]);
        assert_eq!(sum.round(), 7.0 * tiny, "7 bottom-ulps is representable");
        // Subnormal + huge: sticky bits must survive into rounding.
        let mixed = ExactSum::from_values(&[1.0, tiny]);
        assert_eq!(mixed.round(), 1.0 + tiny); // = 1.0 after IEEE rounding
    }

    #[test]
    fn equality_is_value_equality_not_history() {
        let a = ExactSum::from_values(&[1.0, 2.0, 3.0]);
        let b = ExactSum::from_values(&[3.0, 2.0, 1.0]);
        let c = ExactSum::from_values(&[6.0]);
        assert_eq!(a, b);
        assert_eq!(a, c, "same exact value, different history");
        let d = ExactSum::from_values(&[f64::from_bits(6.0f64.to_bits() + 1)]);
        assert_ne!(a, d);
    }
}
