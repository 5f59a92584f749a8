//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

/// A length specification for [`vec()`]: either exact or a half-open
/// range of lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n + 1 }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "vec: empty length range {r:?}");
        Self {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        Self {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Strategy producing `Vec`s of values from an element strategy.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    size: SizeRange,
}

/// Generates vectors whose length is drawn from `size` and whose
/// elements are drawn from `elem`.
pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = if self.size.lo + 1 >= self.size.hi {
            self.size.lo
        } else {
            rng.gen_range(self.size.lo..self.size.hi)
        };
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::new_rng;

    #[test]
    fn vec_lengths_and_elements_respect_bounds() {
        let mut rng = new_rng("collection_unit");
        let exact = vec(-1.0f64..1.0, 7usize);
        let ranged = vec(0u8..3, 2usize..9);
        for _ in 0..200 {
            assert_eq!(exact.generate(&mut rng).len(), 7);
            let v = ranged.generate(&mut rng);
            assert!((2..9).contains(&v.len()), "{}", v.len());
            assert!(v.iter().all(|&b| b < 3));
        }
    }
}
