//! Exact rational arithmetic over `i128`.
//!
//! Rationals are kept normalized (positive denominator, reduced by gcd).
//! The solver's constraint sets are tiny, so `i128` headroom is ample; all
//! operations use checked arithmetic in debug builds via plain operators.
//! `+`, `−` and `×` of two integers skip the gcd (their result is already
//! normalized) but perform the same `i128` operations, so they overflow
//! exactly where the general path would.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Construct a rational from numerator and denominator.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let (num, den) = (num * sign, den * sign);
        let g = gcd(num, den);
        if g == 0 {
            Rat { num: 0, den: 1 }
        } else {
            Rat {
                num: num / g,
                den: den / g,
            }
        }
    }

    /// An integer already in `i128`: normalized by construction, so no gcd.
    fn integral(num: i128) -> Rat {
        Rat { num, den: 1 }
    }

    /// Construct from an integer.
    pub fn int(n: i64) -> Rat {
        Rat {
            num: n as i128,
            den: 1,
        }
    }

    /// The numerator (after normalization).
    pub fn numerator(self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denominator(self) -> i128 {
        self.den
    }

    /// Whether this is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether this is a (mathematical) integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Whether this is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Whether this is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// The greatest integer less than or equal to the value.
    pub fn floor(self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            -((-self.num + self.den - 1) / self.den)
        }
    }

    /// The least integer greater than or equal to the value.
    pub fn ceil(self) -> i128 {
        -((-self).floor())
    }

    /// The absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The minimum of two rationals.
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The maximum of two rationals.
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            return Rat::integral(self.num + rhs.num);
        }
        Rat::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            return Rat::integral(self.num - rhs.num);
        }
        Rat::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            return Rat::integral(self.num * rhs.num);
        }
        Rat::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        assert!(!rhs.is_zero(), "division by zero rational");
        Rat::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
        assert_eq!(Rat::new(3, 3), Rat::ONE);
    }

    #[test]
    fn arithmetic() {
        let half = Rat::new(1, 2);
        let third = Rat::new(1, 3);
        assert_eq!(half + third, Rat::new(5, 6));
        assert_eq!(half - third, Rat::new(1, 6));
        assert_eq!(half * third, Rat::new(1, 6));
        assert_eq!(half / third, Rat::new(3, 2));
        assert_eq!(-half, Rat::new(-1, 2));
    }

    #[test]
    fn integer_operands_take_the_gcd_free_path_to_the_same_values() {
        for (a, b) in [(7, -3), (-12, 4), (0, 9), (i64::MAX, 2)] {
            let (x, y) = (Rat::int(a), Rat::int(b));
            let (a, b) = (i128::from(a), i128::from(b));
            assert_eq!(x + y, Rat::new(a + b, 1));
            assert_eq!(x - y, Rat::new(a - b, 1));
            assert_eq!(x * y, Rat::new(a * b, 1));
        }
        // A fraction on either side still takes the general path.
        assert_eq!(Rat::int(1) + Rat::new(1, 2), Rat::new(3, 2));
        assert_eq!(Rat::new(2, 3) * Rat::int(3), Rat::int(2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert_eq!(Rat::new(2, 6).cmp(&Rat::new(1, 3)), Ordering::Equal);
        assert_eq!(Rat::new(1, 2).max(Rat::new(2, 3)), Rat::new(2, 3));
        assert_eq!(Rat::new(1, 2).min(Rat::new(2, 3)), Rat::new(1, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
        assert_eq!(Rat::int(-5).floor(), -5);
    }

    #[test]
    fn integrality() {
        assert!(Rat::int(3).is_integer());
        assert!(!Rat::new(1, 2).is_integer());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn absolute_value() {
        assert_eq!(Rat::new(-2, 3).abs(), Rat::new(2, 3));
    }
}
