//! # occusense-proptest
//!
//! A small, dependency-free stand-in for the subset of the `proptest`
//! API this workspace's property tests use. The build environment has
//! no crates.io access, so the workspace maps the dependency name
//! `proptest` onto this crate; `use proptest::prelude::*;` resolves
//! here.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case panics with the generated inputs
//!   in the assertion message instead of a minimised counterexample.
//! * **Deterministic generation.** Each `proptest!` test derives its
//!   RNG seed from the test's name, so runs are reproducible without a
//!   persistence file.
//! * Only the combinators the workspace uses exist: range strategies,
//!   tuples, [`collection::vec`], `prop_map`, `prop_flat_map`,
//!   [`Just`](strategy::Just), and the `proptest!` / `prop_compose!` /
//!   `prop_assert…!` / `prop_assume!` macros.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Upstream-style nested module path: `prop::collection::vec(..)`.
pub mod prop {
    pub use crate::collection;
}

/// The glob-import surface used by the workspace's test files.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, proptest,
    };
}

/// Builds the deterministic RNG for one property test (seeded from the
/// test name via FNV-1a). Public for use by the `proptest!` expansion.
pub fn new_rng(test_name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Defines property tests: each `fn` runs its body for
/// `ProptestConfig::cases` generated inputs.
///
/// ```
/// use occusense_proptest::prelude::*;
///
/// proptest! {
///     #[test]
///     fn addition_commutes(a in -100i32..100, b in -100i32..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
// The doctest's `#[test]` mirrors real call sites; rustdoc strips the
// attributed fn outside `--test`, so the doctest compile-checks the
// expansion rather than executing it (the shim's own unit tests and
// every workspace property test exercise it for real).
#[allow(clippy::test_attr_in_doctest)]
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::new_rng(stringify!($name));
            for __case in 0..__config.cases {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
    )*};
}

/// Composes named sub-strategies into a strategy for a derived value
/// (single-block form of upstream `prop_compose!`).
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident ( $($arg:ident : $argty:ty),* $(,)? )
        ( $($pat:pat in $strat:expr),+ $(,)? ) -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $argty),*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::Strategy::prop_map(
                ($($strat,)+),
                move |($($pat,)+)| $body,
            )
        }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current generated case when an assumption does not hold.
/// (Skipped cases still count towards the case budget, unlike
/// upstream, which is fine at this workspace's case counts.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            continue;
        }
    };
}
