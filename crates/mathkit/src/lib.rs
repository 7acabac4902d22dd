//! # tdf-mathkit
//!
//! Numeric substrate for the cryptographic parts of the toolkit.
//!
//! The paper's *user privacy* dimension rests on private information
//! retrieval \[8\] and its *owner privacy* dimension on cryptographic
//! privacy-preserving data mining \[18, 19\]; both need number theory that the
//! sanctioned dependency set does not provide. This crate implements it from
//! scratch:
//!
//! * [`biguint`] — arbitrary-precision unsigned integers (schoolbook and
//!   Knuth Algorithm D division), the base of everything else;
//! * [`bigint`] — signed wrapper;
//! * [`modular`] — modular exponentiation, inverses, Jacobi symbols;
//! * [`barrett`] — division-free fixed-modulus reduction for hot loops;
//! * [`primes`] — Miller–Rabin and random/Blum prime generation;
//! * [`field`] — the fast 61-bit Mersenne prime field used by secret
//!   sharing in `tdf-smc`;
//! * [`rational`] — exact arbitrary-precision rationals;
//! * [`linalg`] — Gaussian elimination over the rationals (the engine of
//!   the Chin–Ozsoyoglu query auditor in `tdf-querydb`) and GF(2) vector
//!   helpers for XOR-based PIR.

pub mod barrett;
pub mod bigint;
pub mod biguint;
pub mod field;
pub mod linalg;
pub mod modular;
pub mod primes;
pub mod rational;

pub use bigint::BigInt;
pub use biguint::BigUint;
pub use field::Fp61;
pub use rational::Rational;
