//! Offline drop-in replacement for the subset of `proptest` used by this
//! workspace: the `proptest!` macro, composable
//! [`Strategy`](strategy::Strategy) values (integer ranges, tuples,
//! `collection::vec`, [`any`](strategy::any), [`Just`](strategy::Just),
//! `prop_oneof!`, `prop_map`), and `prop_assert!`/`prop_assert_eq!`.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves `proptest` to this path crate. Differences from real proptest:
//! **no shrinking** (a failing case reports its seed and case number
//! instead of a minimised input) and **deterministic seeding** derived from
//! the test's module path, so failures reproduce across runs.

pub mod strategy;
pub mod test_runner;

/// `proptest::collection` — strategies for collections.
pub mod collection {
    use crate::strategy::{Strategy, VecStrategy};

    /// A strategy for `Vec`s whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// `proptest::sample` — strategies for sampling.
pub mod sample {
    /// An abstract index into a collection of (then-)unknown size; resolve
    /// with [`Index::index`].
    #[derive(Debug, Clone, Copy)]
    pub struct Index(pub(crate) u64);

    impl Index {
        /// Resolve to a concrete index uniformly below `len`.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl crate::strategy::Arbitrary for Index {
        fn arbitrary(rng: &mut crate::test_runner::TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// Everything the `proptest!` tests import.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Assert inside a `proptest!` body; failure fails the current case with
/// the formatted message (no panic unwinding through the runner).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(format!(
                "{} ({:?} != {:?})",
                format!($($fmt)*),
                l,
                r
            ));
        }
    }};
}

/// Choose uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Define property tests: each `#[test] fn name(arg in strategy, ..) {..}`
/// becomes a test that runs the body over `config.cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let seed0 = $crate::test_runner::seed_for(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::for_case(seed0, case as u64);
                let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $crate::__proptest_bindings!(rng; $($params)*);
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(msg) = outcome {
                    panic!(
                        "proptest {} failed at case {case} (seed {seed0:#x}): {msg}",
                        stringify!($name)
                    );
                }
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bindings {
    ($rng:ident;) => {};
    ($rng:ident; mut $arg:ident in $strat:expr) => {
        let mut $arg = $crate::strategy::Strategy::sample(&($strat), &mut $rng);
    };
    ($rng:ident; mut $arg:ident in $strat:expr, $($rest:tt)*) => {
        let mut $arg = $crate::strategy::Strategy::sample(&($strat), &mut $rng);
        $crate::__proptest_bindings!($rng; $($rest)*);
    };
    ($rng:ident; $arg:ident in $strat:expr) => {
        let $arg = $crate::strategy::Strategy::sample(&($strat), &mut $rng);
    };
    ($rng:ident; $arg:ident in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::strategy::Strategy::sample(&($strat), &mut $rng);
        $crate::__proptest_bindings!($rng; $($rest)*);
    };
}
