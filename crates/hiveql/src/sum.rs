//! Exact sums (DESIGN.md §18). SUM and AVG add their numbers exactly and
//! round once, at the end, so a result does not depend on the order of
//! the adds: not on the file layout, the degree of a read, or how a scan's
//! batches fold into partial states.
//!
//! [`Exact`] is a fixed-point superaccumulator after Neal, "Fast exact
//! summation using small and large superaccumulators" (arXiv:1505.05571):
//! the sum is an integer multiple of 2^-1074, the smallest subnormal, held
//! as 32-bit digits in `i64` words, so that 2^30 adds carry nothing. Only
//! the window of digits the data reaches is kept.

use std::iter;

/// Bits per digit: digit `j` (absolute) weighs 2^(32·j − 1074).
const DIGIT: u32 = 32;

/// Adds (or merges) between two carries: each moves a word by less than
/// 2^32, so a word stays below 2^62.
const CARRY_EVERY: u32 = 1 << 30;

const FRACTION: u64 = (1 << 52) - 1;

/// Non-finite numbers seen, by flag; any two of them, or NaN, make NaN.
const POS_INF: u8 = 1;
const NEG_INF: u8 = 2;

/// The exact sum of the numbers added so far.
#[derive(Debug, Clone, Default)]
pub struct Exact {
    /// Up to two numbers added last (finite, not zero), not yet spread
    /// into digits; 0.0 where none is. A batch's partial sum is often
    /// just these.
    held: [f64; 2],
    /// The window of digits, lowest first, the last one spare for carries.
    /// Right after a carry every word but the last is in `0..2^32`, and
    /// the last takes the sign.
    digits: Vec<i64>,
    /// The absolute index of `digits[0]`.
    low: u32,
    /// Adds since the last carry.
    adds: u32,
    /// `POS_INF`, `NEG_INF` and NaN (4), as seen.
    special: u8,
}

impl Exact {
    /// Adds a DOUBLE.
    pub fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        if !x.is_finite() {
            self.special |= 1 << (2 * u8::from(x.is_nan()) + u8::from(x < 0.0));
            return;
        }
        if self.held[1] != 0.0 {
            self.spill();
        }
        let free = usize::from(self.held[0] != 0.0);
        self.held[free] = x;
    }

    /// Moves the held numbers into the digits.
    fn spill(&mut self) {
        for h in std::mem::take(&mut self.held) {
            let bits = h.to_bits();
            let e = (bits >> 52) & 0x7ff;
            let m = bits & FRACTION | u64::from(e != 0) << 52;
            self.add_at(bits >> 63 == 1, m, e.max(1) as u32 - 1);
        }
    }

    /// Adds an integer, BIGINT sums included.
    pub fn add_int(&mut self, n: i128) {
        let mag = n.unsigned_abs();
        self.add_at(n < 0, mag as u64, 1074);
        self.add_at(n < 0, (mag >> 64) as u64, 1074 + 64);
    }

    /// Adds `x[i]` for each `i` of `rows`. Where the numbers span few
    /// enough binades for their count, each splits exactly into a multiple
    /// `q` of a power of two and a rest `r` (Rump's extraction), and the
    /// `q`s and the `r`s add up as DOUBLEs without rounding: two adds.
    pub fn add_rows(&mut self, x: &[f64], rows: &[u32]) {
        // The largest magnitude's bits, and the smallest not zero's (a
        // zero wraps to the top).
        let (mut lo, mut hi) = (u64::MAX, 0);
        for &i in rows {
            let abs = x[i as usize].to_bits() & !(1 << 63);
            lo = lo.min(abs.wrapping_sub(1));
            hi = hi.max(abs);
        }
        // Fewer than 2^b numbers, each a multiple of 2^(e_lo - 1075) below
        // 2^(e_hi - 1022) <= 2^(e - 1). Then `q` is a multiple of
        // 2^(e - 52) and the `q`s sum to less than 2^(e + 1); |r| is at
        // most 2^(e - 53), so the `r`s sum to at most 2^53 of their unit
        // while 2b + e_hi - e_lo <= 53.
        let (e_lo, e_hi) = ((lo.wrapping_add(1) >> 52).max(1) as i64, (hi >> 52) as i64);
        let b = i64::from(usize::BITS - rows.len().leading_zeros());
        let e = b + e_hi - 1022;
        if e_hi == 0x7ff || 2 * b + e_hi - e_lo > 53 || e > 1022 {
            rows.iter().for_each(|&i| self.add(x[i as usize]));
            return;
        }
        let sigma = f64::from_bits(((e + 1023) as u64) << 52 | 1 << 51);
        // Four lanes, so that the adds need not wait on each other.
        let (mut q, mut r) = ([0.0; 4], [0.0; 4]);
        let mut split = |j: usize, i: u32| {
            let (v, h) = (x[i as usize], (x[i as usize] + sigma) - sigma);
            (q[j], r[j]) = (q[j] + h, r[j] + (v - h));
        };
        let fours = rows.chunks_exact(4);
        let rest = fours.remainder();
        fours.for_each(|four| (0..4).for_each(|j| split(j, four[j])));
        rest.iter().enumerate().for_each(|(j, &i)| split(j, i));
        self.add((q[0] + q[1]) + (q[2] + q[3]));
        self.add((r[0] + r[1]) + (r[2] + r[3]));
    }

    /// Adds another sum.
    pub fn merge(&mut self, other: &Exact) {
        self.special |= other.special;
        other.held.iter().for_each(|&h| self.add(h));
        if other.digits.is_empty() {
            return;
        }
        self.reach(other.low, other.low + other.digits.len() as u32);
        let at = (other.low - self.low) as usize;
        for (d, o) in self.digits[at..].iter_mut().zip(&other.digits) {
            *d += o;
        }
        self.count_adds(other.adds + 1);
    }

    /// The sum rounded to the nearest DOUBLE, ties to even: ±inf past the
    /// largest, +0.0 when it is zero. NaN if a NaN was added or both
    /// infinities were; else ±inf if one of them was.
    pub fn value(mut self) -> f64 {
        match self.special {
            0 => {}
            POS_INF => return f64::INFINITY,
            NEG_INF => return f64::NEG_INFINITY,
            _ => return f64::NAN,
        }
        if self.digits.is_empty() {
            // One IEEE add rounds two numbers' sum once (zeros are never
            // held, so it is never -0.0).
            return self.held[0] + self.held[1];
        }
        self.spill();
        self.carry();
        let negative = self.digits.last().is_some_and(|&d| d < 0);
        if negative {
            self.digits.iter_mut().for_each(|d| *d = -*d);
            self.carry();
        }
        let Some(h) = self.digits.iter().rposition(|&d| d != 0) else {
            return 0.0;
        };
        // The top three digits, and whether any digit below them is not 0.
        let digit = |j: usize| h.checked_sub(j).map_or(0, |j| self.digits[j] as u128);
        let top = digit(0) << 64 | digit(1) << 32 | digit(2);
        let sticky = self.digits[..h.saturating_sub(2)].iter().any(|&d| d != 0);
        // `top` weighs 2^e0; keep 53 bits, or down to 2^-1074.
        let e0 = i64::from(DIGIT) * (i64::from(self.low) + h as i64 - 2) - 1074;
        let msb = e0 + 127 - i64::from(top.leading_zeros());
        let mut lsb = (msb - 52).max(-1074);
        let drop = lsb - e0;
        let mut mant = if drop <= 0 {
            top << -drop
        } else {
            let (kept, rest, half) = (top >> drop, top & ((1 << drop) - 1), 1 << (drop - 1));
            kept + u128::from(rest > half || rest == half && (sticky || kept & 1 == 1))
        } as u64;
        if mant == 1 << 53 {
            (mant, lsb) = (mant >> 1, lsb + 1);
        }
        let bits = match mant >> 52 {
            0 => mant,
            _ if lsb + 1075 >= 0x7ff => 0x7ff << 52,
            _ => ((lsb + 1075) as u64) << 52 | mant & FRACTION,
        };
        f64::from_bits(bits | u64::from(negative) << 63)
    }

    /// Adds `mag` · 2^(s − 1074), negated if `negative`.
    fn add_at(&mut self, negative: bool, mag: u64, s: u32) {
        if mag == 0 {
            return;
        }
        let (k, wide) = (s / DIGIT, u128::from(mag) << (s % DIGIT));
        let n = (128 - wide.leading_zeros()).div_ceil(DIGIT);
        self.reach(k, k + n + 1);
        let at = (k - self.low) as usize;
        for (j, d) in self.digits[at..][..n as usize].iter_mut().enumerate() {
            let piece = i64::from((wide >> (DIGIT as usize * j)) as u32);
            *d += if negative { -piece } else { piece };
        }
        self.count_adds(1);
    }

    /// Widens the window to hold digits `from..to`.
    fn reach(&mut self, from: u32, to: u32) {
        if self.digits.is_empty() {
            self.low = from;
        }
        if from < self.low {
            let below = iter::repeat_n(0, (self.low - from) as usize);
            self.digits.splice(0..0, below);
            self.low = from;
        }
        let len = (to - self.low) as usize;
        if len > self.digits.len() {
            self.digits.resize(len, 0);
        }
    }

    fn count_adds(&mut self, n: u32) {
        self.adds += n;
        if self.adds >= CARRY_EVERY {
            self.carry();
        }
    }

    /// Brings every word but the last into `0..2^32`; the last, spare
    /// digit takes the carries and the sign.
    fn carry(&mut self) {
        self.adds = 0;
        for j in 1..self.digits.len() {
            let c = self.digits[j - 1] >> DIGIT;
            self.digits[j - 1] -= c << DIGIT;
            self.digits[j] += c;
        }
    }
}
