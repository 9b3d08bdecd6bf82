//! Exact rational numbers over checked `i128`.
//!
//! Values are kept normalized: the denominator is strictly positive and
//! `gcd(num, den) == 1`, so equality and hashing are structural.
//!
//! Every operation is checked. A result that would leave `i128` panics
//! with the message "Rational overflowed i128", in release builds too;
//! nothing wraps. The compiler's LPs stay far inside that range: the
//! widest intermediate any shape the repository compiles reaches is
//! 35 bits, and the widest normalized part 21 bits.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128, // invariant: den > 0, gcd(num, den) == 1
}

/// Unwrap a `checked_*` result, panicking on overflow.
fn checked(v: Option<i128>) -> i128 {
    v.expect("Rational overflowed i128")
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    // Only `new` calls this, with `b` a positive `i128`; the gcd divides
    // it, so it fits.
    a as i128
}

impl Rational {
    /// The rational 0.
    pub fn zero() -> Self {
        Rational { num: 0, den: 1 }
    }

    /// The rational 1.
    pub fn one() -> Self {
        Rational { num: 1, den: 1 }
    }

    /// Construct `num / den`, normalizing. Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rational with zero denominator");
        let (num, den) = if den < 0 {
            (checked(num.checked_neg()), checked(den.checked_neg()))
        } else {
            (num, den)
        };
        let g = gcd(num, den);
        Rational { num: num / g, den: den / g }
    }

    /// Construct from an integer ratio.
    pub fn ratio(num: i64, den: i64) -> Self {
        Rational::new(num.into(), den.into())
    }

    /// True iff exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// True iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// True iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Lossy conversion to `f64` for reporting.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Round toward positive infinity to the nearest integer.
    pub fn ceil(&self) -> i128 {
        // Truncating division; a positive remainder means a positive
        // non-integer, which truncation rounded down.
        let q = self.num / self.den;
        if self.num % self.den > 0 {
            q + 1
        } else {
            q
        }
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational { num: v.into(), den: 1 }
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from(v as i64)
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
        let lhs = checked(self.num.checked_mul(other.den));
        lhs.cmp(&checked(other.num.checked_mul(self.den)))
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, other: &Rational) -> Rational {
        let ad = checked(self.num.checked_mul(other.den));
        let cb = checked(other.num.checked_mul(self.den));
        Rational::new(checked(ad.checked_add(cb)), checked(self.den.checked_mul(other.den)))
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, other: &Rational) -> Rational {
        self + &-other
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, other: &Rational) -> Rational {
        Rational::new(
            checked(self.num.checked_mul(other.num)),
            checked(self.den.checked_mul(other.den)),
        )
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, other: &Rational) -> Rational {
        assert!(!other.is_zero(), "Rational division by zero");
        Rational::new(
            checked(self.num.checked_mul(other.den)),
            checked(self.den.checked_mul(other.num)),
        )
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
        -&self
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { num: checked(self.num.checked_neg()), den: self.den }
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
        assert_eq!(r(7, 2).ceil(), 4);
        assert_eq!(r(-7, 2).ceil(), -3);
        assert_eq!(r(6, 2).ceil(), 3);
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
