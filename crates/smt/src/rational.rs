//! Exact rational numbers over [`BigInt`].
//!
//! Values are kept normalized: the denominator is strictly positive and
//! `gcd(num, den) == 1`, so equality and hashing are structural.

use crate::bigint::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: BigInt,
    den: BigInt, // invariant: den > 0, gcd(num, den) == 1
}

impl Rational {
    /// The rational 0.
    pub fn zero() -> Self {
        Rational { num: BigInt::zero(), den: BigInt::one() }
    }

    /// The rational 1.
    pub fn one() -> Self {
        Rational { num: BigInt::one(), den: BigInt::one() }
    }

    /// Construct `num / den`, normalizing. Panics if `den == 0`.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "Rational with zero denominator");
        let (num, den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        let g = num.gcd(&den);
        if g.is_zero() {
            return Rational::zero();
        }
        let (num, _) = num.divrem(&g);
        let (den, _) = den.divrem(&g);
        Rational { num, den }
    }

    /// Construct from an integer ratio.
    pub fn ratio(num: i64, den: i64) -> Self {
        Rational::new(BigInt::from(num), BigInt::from(den))
    }

    /// True iff exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// True iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// True iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == BigInt::one()
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rational::new(self.den.clone(), self.num.clone())
    }

    /// Lossy conversion to `f64` for reporting.
    pub fn to_f64(&self) -> f64 {
        self.num.to_f64() / self.den.to_f64()
    }

    /// Round toward positive infinity to the nearest integer.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.divrem(&self.den);
        if r.is_positive() {
            &q + &BigInt::one()
        } else {
            q
        }
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational { num: BigInt::from(v), den: BigInt::one() }
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from(v as i64)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational { num: v, den: BigInt::one() }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b   (b, d > 0)
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, other: &Rational) -> Rational {
        Rational::new(&(&self.num * &other.den) + &(&other.num * &self.den), &self.den * &other.den)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, other: &Rational) -> Rational {
        Rational::new(&(&self.num * &other.den) - &(&other.num * &self.den), &self.den * &other.den)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, other: &Rational) -> Rational {
        Rational::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "Rational division by zero");
        Rational::new(&self.num * &other.den, &self.den * &other.num)
    }
}

macro_rules! forward_owned_ops {
    ($($trait_:ident :: $m:ident),*) => {$(
        impl $trait_ for Rational {
            type Output = Rational;
            fn $m(self, other: Rational) -> Rational {
                (&self).$m(&other)
            }
        }
    )*};
}
forward_owned_ops!(Add::add, Sub::sub, Mul::mul, Div::div);

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { num: -self.num, den: self.den }
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { num: -&self.num, den: self.den.clone() }
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, other: &Rational) {
        *self = &*self + other;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, other: &Rational) {
        *self = &*self - other;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, other: &Rational) {
        *self = &*self * other;
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 7), Rational::zero());
        assert!(r(2, -4).is_negative());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(&r(1, 2) + &r(1, 3), r(5, 6));
        assert_eq!(&r(1, 2) - &r(1, 3), r(1, 6));
        assert_eq!(&r(2, 3) * &r(3, 4), r(1, 2));
        assert_eq!(&r(2, 3) / &r(4, 3), r(1, 2));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn comparison() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == Rational::one());
        assert!(r(-5, 3) < Rational::zero());
    }

    #[test]
    fn ceil_rounds_up() {
        assert_eq!(r(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(r(6, 2).ceil(), BigInt::from(3i64));
    }

    #[test]
    fn recip_and_integer_checks() {
        assert_eq!(r(3, 4).recip(), r(4, 3));
        assert!(r(4, 2).is_integer());
        assert!(!r(1, 2).is_integer());
    }

    #[test]
    fn to_f64() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert_eq!(r(-3, 4).to_f64(), -0.75);
    }
}
