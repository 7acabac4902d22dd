//! Input strategies: generation plus shrink candidates.

use rngkit::{Rng, StdRng};

/// A source of random values of one type, with shrinking.
///
/// Integer ranges (`0u64..100`, `-5i32..=5`, `2u64..`), [`any`], and
/// [`vec()`] all implement this, as do tuples of strategies (which is how
/// the `props!` macro handles multi-argument properties).
pub trait Strategy {
    /// The generated type.
    type Value: Clone + std::fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Pushes *simpler* variants of `value` (each still satisfying this
    /// strategy's constraints) onto `out`. An empty push ends shrinking.
    fn shrink(&self, value: &Self::Value, out: &mut Vec<Self::Value>);
}

/// Shrink an integer toward `origin`, respecting that every candidate
/// must remain producible by the range. Candidates: the origin itself,
/// the midpoint toward it, and one unit step.
macro_rules! int_shrink {
    ($v:expr, $origin:expr, $out:expr, $t:ty) => {{
        let v: $t = $v;
        let origin: $t = $origin;
        if v != origin {
            $out.push(origin);
            let mid = origin + (v - origin) / 2;
            if mid != v && mid != origin {
                $out.push(mid);
            }
            let step = if v > origin { v - 1 } else { v + 1 };
            if step != origin && step != mid {
                $out.push(step);
            }
        }
    }};
}

macro_rules! impl_int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t, out: &mut Vec<$t>) {
                let origin = if self.contains(&0) { 0 } else { self.start };
                int_shrink!(*value, origin, out, $t);
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t, out: &mut Vec<$t>) {
                let origin = if self.contains(&0) { 0 } else { *self.start() };
                int_shrink!(*value, origin, out, $t);
            }
        }

        impl Strategy for core::ops::RangeFrom<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.start..=<$t>::MAX)
            }

            fn shrink(&self, value: &$t, out: &mut Vec<$t>) {
                let origin = if self.contains(&0) { 0 } else { self.start };
                int_shrink!(*value, origin, out, $t);
            }
        }
    )*};
}
impl_int_strategies!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// Full-domain strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

/// The full domain of an integer type: `any::<u64>()`, `any::<i128>()`, …
pub fn any<T>() -> Any<T> {
    Any {
        _marker: core::marker::PhantomData,
    }
}

macro_rules! impl_any {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen()
            }

            fn shrink(&self, value: &$t, out: &mut Vec<$t>) {
                int_shrink!(*value, 0, out, $t);
            }
        }
    )*};
}
impl_any!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// Strategy for `Vec<T>` built by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    min_len: usize,
    max_len: usize,
}

/// A `Vec` of `elem`-generated values with length drawn from `len`
/// (half-open): `vec(any::<u64>(), 1..8)`.
pub fn vec<S: Strategy>(elem: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "vec strategy: empty length range");
    VecStrategy {
        elem,
        min_len: len.start,
        max_len: len.end,
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.min_len..self.max_len);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>, out: &mut Vec<Vec<S::Value>>) {
        // Structural shrinks first: halve, then drop single elements.
        if value.len() > self.min_len {
            let half = (value.len() / 2).max(self.min_len);
            if half < value.len() {
                out.push(value[..half].to_vec());
                out.push(value[value.len() - half..].to_vec());
            }
            for i in 0..value.len().min(4) {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Then element-wise shrinks on a few positions.
        for i in 0..value.len().min(4) {
            let mut cands = Vec::new();
            self.elem.shrink(&value[i], &mut cands);
            for c in cands {
                let mut v = value.clone();
                v[i] = c;
                out.push(v);
            }
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value, out: &mut Vec<Self::Value>) {
                $(
                    {
                        let mut cands = Vec::new();
                        self.$idx.shrink(&value.$idx, &mut cands);
                        for c in cands {
                            let mut v = value.clone();
                            v.$idx = c;
                            out.push(v);
                        }
                    }
                )+
            }
        }
    )*};
}

impl_tuple_strategy! {
    (S0 0);
    (S0 0, S1 1);
    (S0 0, S1 1, S2 2);
    (S0 0, S1 1, S2 2, S3 3);
    (S0 0, S1 1, S2 2, S3 3, S4 4);
    (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::SeedableRng;

    #[test]
    fn range_shrink_moves_toward_origin() {
        let s = 10u64..100;
        let mut out = Vec::new();
        s.shrink(&40, &mut out);
        assert!(out.contains(&10), "origin candidate, got {out:?}");
        assert!(out.iter().all(|&c| (10..100).contains(&c) && c < 40));
    }

    #[test]
    fn signed_shrink_targets_zero_when_in_range() {
        let s = -100i64..100;
        let mut out = Vec::new();
        s.shrink(&-64, &mut out);
        assert!(out.contains(&0));
        assert!(out.iter().all(|&c| (-100..100).contains(&c)));
    }

    #[test]
    fn open_ended_range_generates_at_least_start() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = 2u64..;
        for _ in 0..100 {
            assert!(s.generate(&mut rng) >= 2);
        }
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let s = vec(0u64..10, 2..6);
        let mut out = Vec::new();
        s.shrink(&std::vec![1, 2, 3], &mut out);
        assert!(out.iter().all(|v| v.len() >= 2));
        assert!(!out.is_empty());
    }

    #[test]
    fn tuple_shrinks_componentwise() {
        let s = (0u64..100, 0u64..100);
        let mut out = Vec::new();
        s.shrink(&(50, 60), &mut out);
        assert!(out.iter().any(|&(a, b)| a < 50 && b == 60));
        assert!(out.iter().any(|&(a, b)| a == 50 && b < 60));
    }
}
