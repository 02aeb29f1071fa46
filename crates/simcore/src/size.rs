//! Byte sizes for APKs, checkpoint images, VMAs and transfers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A number of bytes.
///
/// The paper reports app installation sizes (Figure 17), transfer sizes
/// (Figure 15) and pairing costs (§4) in kilobytes and megabytes; this type
/// keeps those values exact and displays them in the same units.
///
/// # Examples
///
/// ```
/// use flux_simcore::ByteSize;
///
/// let apk = ByteSize::from_mib(43);
/// assert_eq!(apk.as_u64(), 43 * 1024 * 1024);
/// assert_eq!(format!("{apk}"), "43.0 MB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

/// Serializes as raw bytes.
impl serde::Serialize for ByteSize {
    fn serialize(&self, out: &mut String) {
        serde::Serialize::serialize(&self.0, out);
    }
}

/// Deserializes from a raw byte count.
impl<'de> serde::Deserialize<'de> for ByteSize {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        u64::deserialize(v).map(ByteSize)
    }
}

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from raw bytes.
    pub const fn from_bytes(b: u64) -> Self {
        ByteSize(b)
    }

    /// Creates a size from binary kilobytes.
    pub const fn from_kib(k: u64) -> Self {
        ByteSize(k * 1024)
    }

    /// Creates a size from binary megabytes.
    pub const fn from_mib(m: u64) -> Self {
        ByteSize(m * 1024 * 1024)
    }

    /// Creates a size from a fractional number of megabytes.
    pub fn from_mib_f64(m: f64) -> Self {
        ByteSize((m.max(0.0) * 1024.0 * 1024.0) as u64)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The size in binary kilobytes, as a float.
    pub fn as_kib_f64(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// The size in binary megabytes, as a float.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Scales the size by a ratio (e.g. a compression factor), rounding down.
    pub fn scale(self, ratio: f64) -> ByteSize {
        ByteSize((self.0 as f64 * ratio.max(0.0)) as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// Whether this is exactly zero bytes.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for ByteSize {
    type Output = ByteSize;

    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

/// Panics if `rhs` is larger than `self`, printing both; a caller that
/// means zero says so with [`ByteSize::saturating_sub`].
impl Sub for ByteSize {
    type Output = ByteSize;

    #[track_caller]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        match self.0.checked_sub(rhs.0) {
            Some(bytes) => ByteSize(bytes),
            None => panic!("ByteSize underflow: {self:?} - {rhs:?}"),
        }
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;

    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.1} MB", self.as_mib_f64())
        } else if self.0 >= 1024 {
            write!(f, "{:.1} KB", self.as_kib_f64())
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ByteSize;

    #[test]
    fn units_convert_exactly() {
        assert_eq!(ByteSize::from_kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::from_mib(2).as_u64(), 2 * 1024 * 1024);
    }

    #[test]
    fn scale_applies_ratio() {
        let s = ByteSize::from_mib(10).scale(0.25);
        assert_eq!(s.as_mib_f64(), 2.5);
        // Negative ratios clamp to zero rather than panicking.
        assert_eq!(ByteSize::from_mib(10).scale(-1.0), ByteSize::ZERO);
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(
            ByteSize::from_kib(1).saturating_sub(ByteSize::from_mib(1)),
            ByteSize::ZERO
        );
        assert_eq!(
            ByteSize::from_mib(1) - ByteSize::from_kib(1),
            ByteSize::from_kib(1023)
        );
    }

    #[test]
    #[should_panic(expected = "ByteSize underflow: ByteSize(1024) - ByteSize(1048576)")]
    fn subtraction_panics_on_underflow() {
        let _ = ByteSize::from_kib(1) - ByteSize::from_mib(1);
    }

    #[test]
    fn sum_adds_all_items() {
        let total: ByteSize = [1u64, 2, 3].into_iter().map(ByteSize::from_kib).sum();
        assert_eq!(total, ByteSize::from_kib(6));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(ByteSize::from_bytes(512).to_string(), "512 B");
        assert_eq!(ByteSize::from_kib(3).to_string(), "3.0 KB");
        assert_eq!(ByteSize::from_mib(14).to_string(), "14.0 MB");
    }
}
