//! Fixed-point token amounts.
//!
//! All fund accounting in the simulator uses [`Amount`], a `u64` count of
//! *millitokens* (1/1000 of a token). Fixed-point arithmetic keeps channel
//! conservation exact: floating-point drift in balances would make the
//! deadlock experiments unsound. Rates (tokens/second) are only used inside
//! controllers and cross into funds through explicit conversions.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of millitokens per token.
const MILLIS_PER_TOKEN: u64 = 1_000;

/// A non-negative quantity of funds, stored as millitokens.
///
/// Arithmetic via `+`/`-` panics on overflow/underflow in both debug and
/// release builds (channel accounting bugs must never wrap); use
/// [`Amount::checked_sub`] and [`Amount::saturating_sub`] where a shortfall
/// is an expected outcome.
///
/// # Examples
///
/// ```
/// use pcn_types::Amount;
///
/// let a = Amount::from_tokens(5);
/// let b = Amount::from_millitokens(2_500);
/// assert_eq!((a + b).to_tokens_f64(), 7.5);
/// assert_eq!(a.checked_sub(b), Some(Amount::from_millitokens(2_500)));
/// assert_eq!(b.checked_sub(a), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Amount(u64);

impl Amount {
    /// The zero amount.
    pub const ZERO: Amount = Amount(0);
    /// The largest representable amount.
    pub const MAX: Amount = Amount(u64::MAX);

    /// Creates an amount from whole tokens.
    ///
    /// # Panics
    ///
    /// Panics if `tokens * 1000` overflows `u64` (≈ 1.8e16 tokens).
    pub const fn from_tokens(tokens: u64) -> Self {
        match tokens.checked_mul(MILLIS_PER_TOKEN) {
            Some(m) => Amount(m),
            None => panic!("token amount overflows millitoken representation"),
        }
    }

    /// Creates an amount from millitokens.
    pub const fn from_millitokens(millitokens: u64) -> Self {
        Amount(millitokens)
    }

    /// Creates an amount from a floating-point token value, rounding to the
    /// nearest millitoken and clamping negatives to zero.
    pub fn from_tokens_f64(tokens: f64) -> Self {
        if !tokens.is_finite() || tokens <= 0.0 {
            return Amount::ZERO;
        }
        let millis = (tokens * MILLIS_PER_TOKEN as f64).round();
        if millis >= u64::MAX as f64 {
            Amount::MAX
        } else {
            Amount(millis as u64)
        }
    }

    /// Returns the value in millitokens.
    pub const fn millitokens(self) -> u64 {
        self.0
    }

    /// Returns the whole-token part (truncating).
    pub const fn tokens_floor(self) -> u64 {
        self.0 / MILLIS_PER_TOKEN
    }

    /// Returns the value in tokens as a float (may lose precision above
    /// 2^53 millitokens).
    pub fn to_tokens_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_TOKEN as f64
    }

    /// Returns whether this amount is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` when `rhs > self`.
    pub const fn checked_sub(self, rhs: Amount) -> Option<Amount> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Amount(v)),
            None => None,
        }
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: Amount) -> Option<Amount> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Amount(v)),
            None => None,
        }
    }

    /// Saturating subtraction (floors at zero).
    pub const fn saturating_sub(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition (caps at [`Amount::MAX`]).
    pub const fn saturating_add(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_add(rhs.0))
    }

    /// Returns the smaller of two amounts.
    pub fn min(self, other: Amount) -> Amount {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two amounts.
    pub fn max(self, other: Amount) -> Amount {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Multiplies by an integer scale factor.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn scale(self, factor: u64) -> Amount {
        Amount(
            self.0
                .checked_mul(factor)
                .expect("amount scaling overflowed"),
        )
    }

    /// Multiplies by a floating factor, rounding to the nearest millitoken.
    /// Negative or non-finite factors yield zero.
    pub fn scale_f64(self, factor: f64) -> Amount {
        Amount::from_tokens_f64(self.to_tokens_f64() * factor)
    }

    /// Integer ratio `self / other` as a float; `other == 0` yields 0.0.
    pub fn ratio(self, other: Amount) -> f64 {
        if other.is_zero() {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add for Amount {
    type Output = Amount;

    fn add(self, rhs: Amount) -> Amount {
        self.checked_add(rhs).expect("amount addition overflowed")
    }
}

impl AddAssign for Amount {
    fn add_assign(&mut self, rhs: Amount) {
        *self = *self + rhs;
    }
}

impl Sub for Amount {
    type Output = Amount;

    fn sub(self, rhs: Amount) -> Amount {
        self.checked_sub(rhs)
            .expect("amount subtraction underflowed")
    }
}

impl SubAssign for Amount {
    fn sub_assign(&mut self, rhs: Amount) {
        *self = *self - rhs;
    }
}

impl Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |acc, a| acc + a)
    }
}

impl fmt::Debug for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}mt", self.0)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / MILLIS_PER_TOKEN;
        let frac = self.0 % MILLIS_PER_TOKEN;
        if frac == 0 {
            write!(f, "{whole}")
        } else {
            write!(f, "{whole}.{frac:03}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_conversions() {
        assert_eq!(Amount::from_tokens(3).millitokens(), 3_000);
        assert_eq!(Amount::from_millitokens(1_500).tokens_floor(), 1);
        assert_eq!(Amount::from_millitokens(1_500).to_tokens_f64(), 1.5);
        assert_eq!(Amount::from_tokens_f64(2.0005).millitokens(), 2_001);
        assert_eq!(Amount::from_tokens_f64(-1.0), Amount::ZERO);
        assert_eq!(Amount::from_tokens_f64(f64::NAN), Amount::ZERO);
        assert_eq!(Amount::from_tokens_f64(f64::INFINITY), Amount::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Amount::from_tokens(2);
        let b = Amount::from_tokens(3);
        assert_eq!(a + b, Amount::from_tokens(5));
        assert_eq!(b - a, Amount::from_tokens(1));
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.saturating_sub(a), Amount::from_tokens(1));
        assert_eq!(a.saturating_sub(b), Amount::ZERO);
        assert_eq!(Amount::MAX.saturating_add(a), Amount::MAX);
        let mut c = a;
        c += b;
        c -= a;
        assert_eq!(c, b);
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn subtraction_underflow_panics() {
        let _ = Amount::from_tokens(1) - Amount::from_tokens(2);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn addition_overflow_panics() {
        let _ = Amount::MAX + Amount::from_millitokens(1);
    }

    #[test]
    fn min_max_ratio() {
        let a = Amount::from_tokens(2);
        let b = Amount::from_tokens(8);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.ratio(b), 0.25);
        assert_eq!(a.ratio(Amount::ZERO), 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Amount::from_tokens(5).to_string(), "5");
        assert_eq!(Amount::from_millitokens(5_250).to_string(), "5.250");
        assert_eq!(format!("{:?}", Amount::from_millitokens(7)), "7mt");
    }

    #[test]
    fn sum_iterator() {
        let total: Amount = (1..=4).map(Amount::from_tokens).sum();
        assert_eq!(total, Amount::from_tokens(10));
    }

    #[test]
    fn scale_operations() {
        assert_eq!(Amount::from_tokens(2).scale(3), Amount::from_tokens(6));
        assert_eq!(
            Amount::from_tokens(2).scale_f64(1.5),
            Amount::from_tokens(3)
        );
        assert_eq!(Amount::from_tokens(2).scale_f64(-1.0), Amount::ZERO);
    }
}
