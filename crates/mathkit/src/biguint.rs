//! Arbitrary-precision unsigned integers.
//!
//! Little-endian `u64` limbs, always normalized (no trailing zero limbs;
//! zero is the empty limb vector). Division is Knuth's Algorithm D, which
//! keeps modular exponentiation with 512-bit moduli fast enough for the
//! computational-PIR experiments.

// Index loops below walk several parallel arrays; iterators would obscure them.
#![allow(clippy::needless_range_loop)]

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Rem, Shl, Shr, Sub};

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: no trailing zeros.
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// Builds from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut s = Self {
            limbs: vec![lo, hi],
        };
        s.normalize();
        s
    }

    /// Builds from little-endian limbs (normalizing).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut s = Self { limbs };
        s.normalize();
        s
    }

    /// The value as `u64`, if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// The value as `u128`, if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Big-endian byte encoding (no leading zero bytes; zero → empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Parses big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut i = bytes.len();
        while i > 0 {
            let start = i.saturating_sub(8);
            let len = i - start;
            let mut chunk = [0u8; 8];
            chunk[8 - len..].copy_from_slice(&bytes[start..i]);
            limbs.push(u64::from_be_bytes(chunk));
            i = start;
        }
        Self::from_limbs(limbs)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True when the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True when the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (zero → 0).
    pub fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Bit `i` (little-endian position).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// `self` compared to `other`.
    pub fn cmp_magnitude(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Sum of `self` and `other`.
    pub fn add_ref(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u128;
        for i in 0..long.len() {
            let s = long[i] as u128 + *short.get(i).unwrap_or(&0) as u128 + carry;
            out.push(s as u64);
            carry = s >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        Self::from_limbs(out)
    }

    /// Difference `self − other`; panics when `other > self`.
    pub fn sub_ref(&self, other: &Self) -> Self {
        assert!(
            self.cmp_magnitude(other) != Ordering::Less,
            "BigUint subtraction underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let d = self.limbs[i] as i128 - *other.limbs.get(i).unwrap_or(&0) as i128 - borrow;
            if d < 0 {
                out.push((d + (1i128 << 64)) as u64);
                borrow = 1;
            } else {
                out.push(d as u64);
                borrow = 0;
            }
        }
        Self::from_limbs(out)
    }

    /// Limb count above which multiplication switches to Karatsuba.
    const KARATSUBA_THRESHOLD: usize = 24;

    /// Product of `self` and `other` (schoolbook below
    /// `KARATSUBA_THRESHOLD` limbs, Karatsuba above).
    pub fn mul_ref(&self, other: &Self) -> Self {
        if self.limbs.len().min(other.limbs.len()) >= Self::KARATSUBA_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    /// Karatsuba multiplication: split both operands at `m` limbs and
    /// recurse with three half-size products instead of four.
    fn mul_karatsuba(&self, other: &Self) -> Self {
        let m = self.limbs.len().max(other.limbs.len()) / 2;
        let split = |v: &Self| -> (Self, Self) {
            if v.limbs.len() <= m {
                (Self::zero(), v.clone())
            } else {
                (
                    Self::from_limbs(v.limbs[m..].to_vec()),
                    Self::from_limbs(v.limbs[..m].to_vec()),
                )
            }
        };
        let (a1, a0) = split(self);
        let (b1, b0) = split(other);
        let z0 = a0.mul_ref(&b0);
        let z2 = a1.mul_ref(&b1);
        let z1 = a0
            .add_ref(&a1)
            .mul_ref(&b0.add_ref(&b1))
            .sub_ref(&z0)
            .sub_ref(&z2);
        z2.shl_bits(2 * m * 64)
            .add_ref(&z1.shl_bits(m * 64))
            .add_ref(&z0)
    }

    fn mul_schoolbook(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        Self::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub fn shl_bits(&self, bits: usize) -> Self {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Self::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub fn shr_bits(&self, bits: usize) -> Self {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        Self::from_limbs(out)
    }

    /// Quotient and remainder of `self / divisor`; panics on division by zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp_magnitude(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            return self.div_rem_u64(divisor.limbs[0]);
        }
        self.div_rem_knuth(divisor)
    }

    fn div_rem_u64(&self, d: u64) -> (Self, Self) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Self::from_limbs(q), Self::from_u64(rem as u64))
    }

    /// Knuth TAOCP vol. 2, Algorithm 4.3.1 D.
    fn div_rem_knuth(&self, divisor: &Self) -> (Self, Self) {
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;

        // Normalized copies: v has its top bit set; u gains one extra limb.
        let v = divisor.shl_bits(shift).limbs;
        let mut u = self.shl_bits(shift).limbs;
        u.resize(self.limbs.len() + 1, 0);

        let mut q = vec![0u64; m + 1];
        let b = 1u128 << 64;

        for j in (0..=m).rev() {
            // Estimate qhat from the top two limbs of the current remainder.
            let top = (u[j + n] as u128) << 64 | u[j + n - 1] as u128;
            let mut qhat = top / v[n - 1] as u128;
            let mut rhat = top % v[n - 1] as u128;
            while qhat >= b || qhat * v[n - 2] as u128 > (rhat << 64 | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }

            // Multiply-subtract: u[j..j+n+1] -= qhat * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let d = u[j + i] as i128 - (p as u64) as i128 - borrow;
                if d < 0 {
                    u[j + i] = (d + b as i128) as u64;
                    borrow = 1;
                } else {
                    u[j + i] = d as u64;
                    borrow = 0;
                }
            }
            let d = u[j + n] as i128 - carry as i128 - borrow;
            if d < 0 {
                // qhat was one too large: add back.
                u[j + n] = (d + b as i128) as u64;
                qhat -= 1;
                let mut carry2 = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v[i] as u128 + carry2;
                    u[j + i] = s as u64;
                    carry2 = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry2 as u64);
            } else {
                u[j + n] = d as u64;
            }
            q[j] = qhat as u64;
        }

        let quotient = Self::from_limbs(q);
        let remainder = Self::from_limbs(u[..n].to_vec()).shr_bits(shift);
        (quotient, remainder)
    }

    /// `self mod m`.
    pub fn rem_ref(&self, m: &Self) -> Self {
        self.div_rem(m).1
    }

    /// Greatest common divisor (binary-friendly Euclid).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem_ref(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Parses a decimal string.
    pub fn from_decimal(s: &str) -> Option<Self> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut acc = Self::zero();
        let ten = Self::from_u64(10);
        for b in s.bytes() {
            acc = acc
                .mul_ref(&ten)
                .add_ref(&Self::from_u64((b - b'0') as u64));
        }
        Some(acc)
    }

    /// Decimal rendering.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10);
            digits.push(b'0' + r.to_u64().unwrap() as u8);
            cur = q;
        }
        digits.reverse();
        String::from_utf8(digits).expect("digits are ASCII")
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_magnitude(other)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_decimal())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal())
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        self.add_ref(rhs)
    }
}
impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = self.add_ref(rhs);
    }
}
impl Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.sub_ref(rhs)
    }
}
impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}
impl Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.rem_ref(rhs)
    }
}
impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        self.shl_bits(bits)
    }
}
impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        self.shr_bits(bits)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}
impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::prelude::*;

    #[test]
    fn construction_and_views() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::from_u128(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!(BigUint::from_u64(0).bit_length(), 0);
        assert_eq!(BigUint::from_u64(1).bit_length(), 1);
        assert_eq!(BigUint::from_u64(255).bit_length(), 8);
        assert_eq!(BigUint::from_u128(1u128 << 100).bit_length(), 101);
    }

    #[test]
    fn bytes_round_trip() {
        let v = BigUint::from_u128(0x0102_0304_0506_0708_090A_0B0C_0D0E_0F10);
        let bytes = v.to_bytes_be();
        assert_eq!(bytes[0], 0x01);
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert!(BigUint::zero().to_bytes_be().is_empty());
    }

    #[test]
    fn decimal_round_trip() {
        let s = "123456789012345678901234567890123456789";
        let v = BigUint::from_decimal(s).unwrap();
        assert_eq!(v.to_decimal(), s);
        assert_eq!(BigUint::from_decimal("0").unwrap(), BigUint::zero());
        assert!(BigUint::from_decimal("12a").is_none());
        assert!(BigUint::from_decimal("").is_none());
    }

    #[test]
    fn knuth_division_multi_limb() {
        // 2^200 / (2^100 + 1): exercises the add-back path candidates.
        let a = BigUint::one().shl_bits(200);
        let b = BigUint::one().shl_bits(100).add_ref(&BigUint::one());
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul_ref(&b).add_ref(&r), a);
        assert!(r.cmp_magnitude(&b) == Ordering::Less);
    }

    #[test]
    fn division_edge_cases() {
        let a = BigUint::from_u64(7);
        let b = BigUint::from_u64(7);
        assert_eq!(a.div_rem(&b), (BigUint::one(), BigUint::zero()));
        let (q, r) = BigUint::from_u64(3).div_rem(&BigUint::from_u64(8));
        assert!(q.is_zero());
        assert_eq!(r.to_u64(), Some(3));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = BigUint::one().sub_ref(&BigUint::from_u64(2));
    }

    #[test]
    fn shifts() {
        let v = BigUint::from_u64(0b1011);
        assert_eq!(v.shl_bits(130).shr_bits(130), v);
        assert_eq!(v.shl_bits(0), v);
        assert!(v.shr_bits(64).is_zero());
        assert!(BigUint::zero().shl_bits(100).is_zero());
    }

    #[test]
    fn gcd_matches_hand_cases() {
        let g = BigUint::from_u64(48).gcd(&BigUint::from_u64(18));
        assert_eq!(g.to_u64(), Some(6));
        assert_eq!(BigUint::zero().gcd(&BigUint::from_u64(5)).to_u64(), Some(5));
    }

    props! {
        #[test]
        fn add_matches_u128(a in any::<u64>() , b in any::<u64>()) {
            let s = BigUint::from_u64(a).add_ref(&BigUint::from_u64(b));
            prop_assert_eq!(s.to_u128(), Some(a as u128 + b as u128));
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let p = BigUint::from_u64(a).mul_ref(&BigUint::from_u64(b));
            prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
        }

        #[test]
        fn div_rem_matches_u128(a in any::<u128>(), b in 1u128..) {
            let (q, r) = BigUint::from_u128(a).div_rem(&BigUint::from_u128(b));
            prop_assert_eq!(q.to_u128(), Some(a / b));
            prop_assert_eq!(r.to_u128(), Some(a % b));
        }

        #[test]
        fn sub_matches_u128(a in any::<u128>(), b in any::<u128>()) {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            let d = BigUint::from_u128(hi).sub_ref(&BigUint::from_u128(lo));
            prop_assert_eq!(d.to_u128(), Some(hi - lo));
        }

        #[test]
        fn multi_limb_div_identity(a in vec(any::<u64>(), 1..8),
                                   b in vec(any::<u64>(), 1..5)) {
            let a = BigUint::from_limbs(a);
            let b = BigUint::from_limbs(b);
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(q.mul_ref(&b).add_ref(&r), a);
            prop_assert!(r.cmp_magnitude(&b) == Ordering::Less);
        }

        #[test]
        fn karatsuba_matches_schoolbook(a in vec(any::<u64>(), 20..60),
                                        b in vec(any::<u64>(), 20..60)) {
            let x = BigUint::from_limbs(a);
            let y = BigUint::from_limbs(b);
            prop_assert_eq!(x.mul_karatsuba(&y), x.mul_schoolbook(&y));
        }

        #[test]
        fn decimal_round_trips(a in vec(any::<u64>(), 0..5)) {
            let v = BigUint::from_limbs(a);
            prop_assert_eq!(BigUint::from_decimal(&v.to_decimal()).unwrap(), v);
        }

        #[test]
        fn bytes_round_trips(a in vec(any::<u64>(), 0..5)) {
            let v = BigUint::from_limbs(a);
            prop_assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        }

        #[test]
        fn shift_round_trips(a in vec(any::<u64>(), 0..4),
                             s in 0usize..200) {
            let v = BigUint::from_limbs(a);
            prop_assert_eq!(v.shl_bits(s).shr_bits(s), v);
        }
    }
}
