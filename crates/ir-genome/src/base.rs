//! Nucleotide bases.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::GenomeError;

/// A single nucleotide base.
///
/// `N` denotes a base the sequencer could not call unambiguously. The
/// accelerator stores one base per byte (paper §III-A), so conversions to and
/// from `u8` are the hot path: [`Base::to_byte`] returns the ASCII letter the
/// hardware buffers hold, and [`Base::from_byte`] parses it back.
///
/// # Example
///
/// ```
/// use ir_genome::Base;
///
/// let b = Base::from_byte(b'G').unwrap();
/// assert_eq!(b, Base::G);
/// assert_eq!(b.complement(), Base::C);
/// assert_eq!(b.to_byte(), b'G');
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A,
    /// Cytosine.
    C,
    /// Guanine.
    G,
    /// Thymine.
    T,
    /// Ambiguous / no-call.
    N,
}

impl Base {
    /// All four unambiguous bases, in alphabetical order.
    pub const ACGT: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Parses a base from its ASCII byte representation.
    ///
    /// Both upper- and lower-case letters are accepted, matching common
    /// FASTA conventions (lower case marks soft-masked repeats).
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidBase`] for any byte outside
    /// `ACGTNacgtn`.
    pub fn from_byte(byte: u8) -> Result<Self, GenomeError> {
        match byte {
            b'A' | b'a' => Ok(Base::A),
            b'C' | b'c' => Ok(Base::C),
            b'G' | b'g' => Ok(Base::G),
            b'T' | b't' => Ok(Base::T),
            b'N' | b'n' => Ok(Base::N),
            other => Err(GenomeError::InvalidBase(other)),
        }
    }

    /// Returns the upper-case ASCII byte for this base — the exact byte the
    /// accelerator's input buffers store.
    pub fn to_byte(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
            Base::N => b'N',
        }
    }

    /// Returns the Watson–Crick complement (`N` maps to `N`).
    pub fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::T => Base::A,
            Base::C => Base::G,
            Base::G => Base::C,
            Base::N => Base::N,
        }
    }

    /// Returns `true` if the base is a no-call (`N`).
    pub fn is_ambiguous(self) -> bool {
        matches!(self, Base::N)
    }

    /// Returns the base for a 2-bit index 0..4 (A, C, G, T).
    ///
    /// This is the packing the paper *declines* to use in hardware (it keeps
    /// byte-per-base for alignment simplicity); we still need it for compact
    /// workload generation.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> Base {
        Self::ACGT[index]
    }

    /// Returns the 2-bit index for an unambiguous base, or `None` for `N`.
    pub fn index(self) -> Option<usize> {
        match self {
            Base::A => Some(0),
            Base::C => Some(1),
            Base::G => Some(2),
            Base::T => Some(3),
            Base::N => None,
        }
    }
}

/// The non-zero kernel code for a base (`A=1 … N=5`; `0` is padding) —
/// the byte value the WHD kernels and the batch sweep layout compare.
///
/// The mapping is injective over `{A, C, G, T, N}`, so comparing codes for
/// equality reproduces the hardware's literal byte compare (`N` matches
/// only `N`), and reserving `0` lets batch layouts pad rows with bytes
/// that can never collide with a real base.
pub const fn base_code(base: Base) -> u8 {
    match base {
        Base::A => 1,
        Base::C => 2,
        Base::G => 3,
        Base::T => 4,
        Base::N => 5,
    }
}

impl TryFrom<u8> for Base {
    type Error = GenomeError;

    fn try_from(value: u8) -> Result<Self, Self::Error> {
        Base::from_byte(value)
    }
}

impl TryFrom<char> for Base {
    type Error = GenomeError;

    fn try_from(value: char) -> Result<Self, Self::Error> {
        if value.is_ascii() {
            Base::from_byte(value as u8)
        } else {
            Err(GenomeError::InvalidBase(b'?'))
        }
    }
}

impl From<Base> for u8 {
    fn from(base: Base) -> u8 {
        base.to_byte()
    }
}

impl From<Base> for char {
    fn from(base: Base) -> char {
        base.to_byte() as char
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", char::from(*self))
    }
}

impl Default for Base {
    /// The default base is `N` (no call), matching an uninitialized
    /// sequencer output.
    fn default() -> Self {
        Base::N
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_codes_are_distinct_and_nonzero() {
        let codes: Vec<u8> = [Base::A, Base::C, Base::G, Base::T, Base::N]
            .into_iter()
            .map(base_code)
            .collect();
        assert_eq!(codes, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn round_trips_through_ascii() {
        for byte in [b'A', b'C', b'G', b'T', b'N'] {
            let base = Base::from_byte(byte).unwrap();
            assert_eq!(base.to_byte(), byte);
        }
    }

    #[test]
    fn accepts_lower_case() {
        assert_eq!(Base::from_byte(b'a').unwrap(), Base::A);
        assert_eq!(Base::from_byte(b't').unwrap(), Base::T);
        assert_eq!(Base::from_byte(b'n').unwrap(), Base::N);
    }

    #[test]
    fn rejects_invalid_bytes() {
        for byte in [b'X', b'0', b' ', 0u8, 255u8] {
            assert!(
                Base::from_byte(byte).is_err(),
                "byte {byte} should be rejected"
            );
        }
    }

    #[test]
    fn complement_is_involutive() {
        for base in [Base::A, Base::C, Base::G, Base::T, Base::N] {
            assert_eq!(base.complement().complement(), base);
        }
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::G.complement(), Base::C);
        assert_eq!(Base::N.complement(), Base::N);
    }

    #[test]
    fn index_round_trip() {
        for i in 0..4 {
            assert_eq!(Base::from_index(i).index(), Some(i));
        }
        assert_eq!(Base::N.index(), None);
    }

    #[test]
    fn only_n_is_ambiguous() {
        assert!(Base::N.is_ambiguous());
        for base in Base::ACGT {
            assert!(!base.is_ambiguous());
        }
    }

    #[test]
    fn display_matches_byte() {
        assert_eq!(Base::A.to_string(), "A");
        assert_eq!(Base::N.to_string(), "N");
    }

    #[test]
    fn try_from_char_rejects_non_ascii() {
        assert!(Base::try_from('é').is_err());
        assert_eq!(Base::try_from('g').unwrap(), Base::G);
    }
}
