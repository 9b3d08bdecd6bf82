//! Arbitrary-precision signed integers.
//!
//! The QUBO coefficient search runs an exact simplex whose pivots can
//! grow intermediate values well past 128 bits, so we need true big
//! integers. This is a compact sign-magnitude implementation over
//! little-endian `u64` limbs with schoolbook multiplication — the
//! matrices involved are small, so asymptotically fancy algorithms
//! would be wasted complexity.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Sign of a [`BigInt`]. Zero always carries [`Sign::Zero`], which keeps
/// equality and hashing canonical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Neg,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Pos,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Neg => Sign::Pos,
            Sign::Zero => Sign::Zero,
            Sign::Pos => Sign::Neg,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// Invariants: `mag` has no trailing zero limbs, and `mag.is_empty()`
/// iff `sign == Sign::Zero`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: Vec<u64>,
}

impl BigInt {
    /// The integer 0.
    pub fn zero() -> Self {
        BigInt { sign: Sign::Zero, mag: Vec::new() }
    }

    /// The integer 1.
    pub fn one() -> Self {
        BigInt::from(1i64)
    }

    /// True iff this value is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// True iff this value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Neg
    }

    /// True iff this value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Pos
    }

    /// The sign of this value.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt {
            sign: if self.sign == Sign::Zero { Sign::Zero } else { Sign::Pos },
            mag: self.mag.clone(),
        }
    }

    fn from_mag(sign: Sign, mut mag: Vec<u64>) -> Self {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        if mag.is_empty() {
            BigInt::zero()
        } else {
            debug_assert_ne!(sign, Sign::Zero);
            BigInt { sign, mag }
        }
    }

    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    #[allow(clippy::needless_range_loop)] // parallel indexing of two slices
    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let s = short.get(i).copied().unwrap_or(0);
            let (v1, c1) = long[i].overflowing_add(s);
            let (v2, c2) = v1.overflowing_add(carry);
            out.push(v2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    /// `a - b`, requires `a >= b` in magnitude.
    #[allow(clippy::needless_range_loop)] // parallel indexing of two slices
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for i in 0..a.len() {
            let s = b.get(i).copied().unwrap_or(0);
            let (v1, b1) = a[i].overflowing_sub(s);
            let (v2, b2) = v1.overflowing_sub(borrow);
            out.push(v2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Divide magnitude by a single limb, returning (quotient, remainder).
    fn divrem_mag_limb(a: &[u64], d: u64) -> (Vec<u64>, u64) {
        debug_assert_ne!(d, 0);
        let mut q = vec![0u64; a.len()];
        let mut rem = 0u128;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | a[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        (q, rem as u64)
    }

    /// Magnitude division: schoolbook long division (Knuth algorithm D,
    /// simplified). Returns (quotient, remainder).
    fn divrem_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        debug_assert!(!b.is_empty(), "division by zero");
        if Self::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let (q, r) = Self::divrem_mag_limb(a, b[0]);
            return (q, if r == 0 { Vec::new() } else { vec![r] });
        }
        // Normalize so the divisor's top limb has its high bit set.
        let shift = b.last().unwrap().leading_zeros();
        let bn = Self::shl_bits(b, shift);
        let mut an = Self::shl_bits(a, shift);
        an.push(0); // room for the top partial remainder
        let n = bn.len();
        let m = an.len() - n - 1;
        let mut q = vec![0u64; m + 1];
        let btop = bn[n - 1] as u128;
        let bsec = bn[n - 2] as u128;
        for j in (0..=m).rev() {
            // Estimate the quotient limb.
            let num = ((an[j + n] as u128) << 64) | an[j + n - 1] as u128;
            let mut qhat = num / btop;
            let mut rhat = num % btop;
            while qhat >> 64 != 0 || qhat * bsec > ((rhat << 64) | an[j + n - 2] as u128) {
                qhat -= 1;
                rhat += btop;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * bn from an[j..j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * bn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (an[j + i] as i128) - (p as u64 as i128) - borrow;
                an[j + i] = sub as u64;
                borrow = if sub < 0 { 1 } else { 0 };
            }
            let sub = (an[j + n] as i128) - (carry as i128) - borrow;
            an[j + n] = sub as u64;
            if sub < 0 {
                // qhat was one too large; add back.
                qhat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = an[j + i] as u128 + bn[i] as u128 + c;
                    an[j + i] = s as u64;
                    c = s >> 64;
                }
                an[j + n] = an[j + n].wrapping_add(c as u64);
            }
            q[j] = qhat as u64;
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        let mut rem = an[..n].to_vec();
        while rem.last() == Some(&0) {
            rem.pop();
        }
        let rem = Self::shr_bits(&rem, shift);
        (q, rem)
    }

    fn shl_bits(a: &[u64], bits: u32) -> Vec<u64> {
        if bits == 0 {
            return a.to_vec();
        }
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for &x in a {
            out.push((x << bits) | carry);
            carry = x >> (64 - bits);
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    fn shr_bits(a: &[u64], bits: u32) -> Vec<u64> {
        if bits == 0 {
            return a.to_vec();
        }
        let mut out = vec![0u64; a.len()];
        let mut carry = 0u64;
        for i in (0..a.len()).rev() {
            out[i] = (a[i] >> bits) | carry;
            carry = a[i] << (64 - bits);
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Truncating division with remainder (C semantics: remainder has
    /// the sign of the dividend). Panics on division by zero.
    pub fn divrem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "BigInt division by zero");
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (qm, rm) = Self::divrem_mag(&self.mag, &other.mag);
        let qsign = if qm.is_empty() {
            Sign::Zero
        } else if self.sign == other.sign {
            Sign::Pos
        } else {
            Sign::Neg
        };
        let rsign = if rm.is_empty() { Sign::Zero } else { self.sign };
        (BigInt::from_mag(qsign, qm), BigInt::from_mag(rsign, rm))
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let (_, r) = a.divrem(&b);
            a = b;
            b = r.abs();
        }
        a
    }

    /// Lossy conversion to `f64` (used only for reporting, never for
    /// exact reasoning).
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &limb in self.mag.iter().rev() {
            v = v * 1.8446744073709552e19 + limb as f64;
        }
        match self.sign {
            Sign::Neg => -v,
            _ => v,
        }
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt { sign: Sign::Pos, mag: vec![v as u64] },
            Ordering::Less => BigInt { sign: Sign::Neg, mag: vec![v.unsigned_abs()] },
        }
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigInt::zero()
        } else {
            BigInt { sign: Sign::Pos, mag: vec![v] }
        }
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        if v == 0 {
            return BigInt::zero();
        }
        let sign = if v > 0 { Sign::Pos } else { Sign::Neg };
        let m = v.unsigned_abs();
        let lo = m as u64;
        let hi = (m >> 64) as u64;
        let mag = if hi == 0 { vec![lo] } else { vec![lo, hi] };
        BigInt { sign, mag }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        let rank = |s: Sign| match s {
            Sign::Neg => 0,
            Sign::Zero => 1,
            Sign::Pos => 2,
        };
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => {}
            other => return other,
        }
        match self.sign {
            Sign::Zero => Ordering::Equal,
            Sign::Pos => Self::cmp_mag(&self.mag, &other.mag),
            Sign::Neg => Self::cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt { sign: self.sign.flip(), mag: self.mag }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt { sign: self.sign.flip(), mag: self.mag.clone() }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_mag(a, BigInt::add_mag(&self.mag, &other.mag)),
            _ => match BigInt::cmp_mag(&self.mag, &other.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_mag(self.sign, BigInt::sub_mag(&self.mag, &other.mag))
                }
                Ordering::Less => {
                    BigInt::from_mag(other.sign, BigInt::sub_mag(&other.mag, &self.mag))
                }
            },
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        self + &(-other)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == other.sign { Sign::Pos } else { Sign::Neg };
        BigInt::from_mag(sign, BigInt::mul_mag(&self.mag, &other.mag))
    }
}

macro_rules! forward_owned_ops {
    ($($trait_:ident :: $m:ident),*) => {$(
        impl $trait_ for BigInt {
            type Output = BigInt;
            fn $m(self, other: BigInt) -> BigInt {
                (&self).$m(&other)
            }
        }
    )*};
}
forward_owned_ops!(Add::add, Sub::sub, Mul::mul);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        if self.sign == Sign::Neg {
            write!(f, "-")?;
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        let mut chunks = Vec::new();
        let mut mag = self.mag.clone();
        while !mag.is_empty() {
            let (q, r) = BigInt::divrem_mag_limb(&mag, 10_000_000_000_000_000_000);
            chunks.push(r);
            mag = q;
        }
        write!(f, "{}", chunks.pop().unwrap())?;
        for c in chunks.iter().rev() {
            write!(f, "{c:019}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_is_canonical() {
        assert!(bi(0).is_zero());
        assert_eq!(bi(5) - bi(5), bi(0));
        assert_eq!(bi(-5) + bi(5), BigInt::zero());
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(bi(2) + bi(3), bi(5));
        assert_eq!(bi(2) - bi(3), bi(-1));
        assert_eq!(bi(-2) * bi(3), bi(-6));
        assert_eq!(bi(-2) * bi(-3), bi(6));
    }

    #[test]
    fn carry_across_limbs() {
        let a = BigInt::from(u64::MAX);
        let b = &a + &BigInt::one();
        assert_eq!(format!("{b}"), "18446744073709551616");
        assert_eq!(&b - &BigInt::one(), a);
    }

    #[test]
    fn multiplication_matches_i128() {
        let a = BigInt::from(123_456_789_012_345i64);
        let b = BigInt::from(987_654_321_098i64);
        let p = &a * &b;
        let expect = 123_456_789_012_345i128 * 987_654_321_098i128;
        assert_eq!(format!("{p}"), format!("{expect}"));
    }

    #[test]
    fn divrem_truncates_toward_zero() {
        let (q, r) = bi(7).divrem(&bi(2));
        assert_eq!((q, r), (bi(3), bi(1)));
        let (q, r) = bi(-7).divrem(&bi(2));
        assert_eq!((q, r), (bi(-3), bi(-1)));
        let (q, r) = bi(7).divrem(&bi(-2));
        assert_eq!((q, r), (bi(-3), bi(1)));
        let (q, r) = bi(-7).divrem(&bi(-2));
        assert_eq!((q, r), (bi(3), bi(-1)));
    }

    #[test]
    fn divrem_multi_limb() {
        // (2^130 + 12345) / (2^65 + 7)
        let two65 = &BigInt::from(1u64 << 63) * &bi(4);
        let a = &(&two65 * &two65) + &bi(12345);
        let b = &two65 + &bi(7);
        let (q, r) = a.divrem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r.abs() < b.abs());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(7).gcd(&bi(0)), bi(7));
        assert_eq!(bi(17).gcd(&bi(13)), bi(1));
    }

    #[test]
    fn ordering() {
        assert!(bi(-3) < bi(-2));
        assert!(bi(-1) < bi(0));
        assert!(bi(0) < bi(1));
        assert!(bi(100) > bi(99));
        let big = &BigInt::from(u64::MAX) * &bi(10);
        assert!(big > bi(i64::MAX));
        assert!(-&big < bi(i64::MIN));
    }

    #[test]
    fn display_round_trip_large() {
        let mut v = BigInt::one();
        for _ in 0..10 {
            v = &v * &BigInt::from(1_000_000_007i64);
        }
        let s = format!("{v}");
        assert_eq!(s.len(), 91); // (10^9)^10 has 91 digits
        assert!(s.starts_with('1'));
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(bi(42).to_f64(), 42.0);
        assert_eq!(bi(-42).to_f64(), -42.0);
        let big = &BigInt::from(u64::MAX) * &BigInt::from(u64::MAX);
        let expect = (u64::MAX as f64) * (u64::MAX as f64);
        assert!((big.to_f64() / expect - 1.0).abs() < 1e-12);
    }
}
