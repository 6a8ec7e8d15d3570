//! Property-based tests for the FM sketch: the §5.2 algebraic laws that
//! make WILDFIRE's convergecast duplicate-insensitive.

use pov_sketch::FmSketch;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Build a sketch from a seed by inserting `inserts` pretend-elements.
fn sketch(c: usize, inserts: u64, seed: u64) -> FmSketch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut s = FmSketch::new(c);
    s.insert_elements(inserts, &mut rng);
    s
}

proptest! {
    #[test]
    fn merge_is_commutative(
        c in 1usize..12,
        na in 0u64..200,
        nb in 0u64..200,
        sa in 0u64..1_000,
        sb in 0u64..1_000,
    ) {
        let a = sketch(c, na, sa);
        let b = sketch(c, nb, sb);
        prop_assert_eq!(a.clone().merged(&b), b.clone().merged(&a));
    }

    #[test]
    fn merge_is_associative(
        c in 1usize..10,
        seeds in prop::array::uniform3(0u64..1_000),
        ns in prop::array::uniform3(0u64..150),
    ) {
        let a = sketch(c, ns[0], seeds[0]);
        let b = sketch(c, ns[1], seeds[1]);
        let d = sketch(c, ns[2], seeds[2]);
        let left = a.clone().merged(&b).merged(&d);
        let right = a.clone().merged(&b.clone().merged(&d));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_is_idempotent(c in 1usize..12, n in 0u64..300, s in 0u64..1_000) {
        let a = sketch(c, n, s);
        prop_assert_eq!(a.clone().merged(&a), a);
    }

    #[test]
    fn empty_is_identity(c in 1usize..12, n in 0u64..300, s in 0u64..1_000) {
        let a = sketch(c, n, s);
        let empty = FmSketch::new(c);
        prop_assert_eq!(a.clone().merged(&empty), a);
    }

    #[test]
    fn estimate_monotone_under_merge(
        c in 1usize..12,
        na in 0u64..300,
        nb in 0u64..300,
        sa in 0u64..1_000,
        sb in 0u64..1_000,
    ) {
        // OR only sets bits, so the lowest-zero index — and hence the
        // estimate — can only grow. This is why WILDFIRE partials move
        // monotonically up the lattice.
        let a = sketch(c, na, sa);
        let b = sketch(c, nb, sb);
        let merged = a.clone().merged(&b);
        prop_assert!(merged.estimate() >= a.estimate());
        prop_assert!(merged.estimate() >= b.estimate());
    }

    #[test]
    fn estimate_zero_iff_empty(c in 1usize..12, n in 0u64..50, s in 0u64..1_000) {
        let a = sketch(c, n, s);
        prop_assert_eq!(a.estimate() == 0.0, a.is_empty());
        prop_assert_eq!(a.is_empty(), n == 0);
    }

    #[test]
    fn merge_check_consistent_with_merge(
        c in 1usize..10,
        na in 0u64..200,
        nb in 0u64..200,
        sa in 0u64..1_000,
        sb in 0u64..1_000,
    ) {
        let a = sketch(c, na, sa);
        let b = sketch(c, nb, sb);
        let mut checked = a.clone();
        let changed = checked.merge_check(&b);
        prop_assert_eq!(&checked, &a.clone().merged(&b));
        prop_assert_eq!(changed, checked != a);
        // Second application never reports change.
        prop_assert!(!checked.merge_check(&b));
    }

    #[test]
    fn fast_insert_produces_plausible_register_fill(
        m in 1u64..5_000,
        seed in 0u64..500,
    ) {
        // The fast path must fill a contiguous-ish low range of bits: at
        // minimum bit 0 is set with m >= 4 almost surely after the exact
        // binomial splitting... assert the weaker invariant that the
        // estimate is positive and within the Lemma 5.1 envelope for
        // c = 16 in the overwhelming majority parametrization: we only
        // assert positivity + monotone cap here (distributional tests
        // live in the unit suite).
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = FmSketch::new(16);
        s.insert_elements_fast(m, &mut rng);
        prop_assert!(!s.is_empty());
        prop_assert!(s.estimate() > 0.0);
    }

    #[test]
    fn wire_bytes_scale_with_c(c in 1usize..64) {
        prop_assert_eq!(FmSketch::new(c).wire_bytes(), c * 8);
    }
}

proptest! {
    #[test]
    fn covers_matches_clone_merge_compare(
        c in 1usize..10,
        ns in prop::array::uniform3(0u64..120),
        seeds in prop::array::uniform3(0u64..1_000),
    ) {
        let a = sketch(c, ns[0], seeds[0]);
        let b = sketch(c, ns[1], seeds[1]);
        let ab = a.clone().merged(&b);
        let d = sketch(c, ns[2], seeds[2]);
        // Random pairs are mostly incomparable; joins and their inputs
        // give the comparable cases.
        for (x, y) in [(&a, &b), (&b, &a), (&ab, &a), (&ab, &b), (&a, &ab), (&d, &ab), (&a, &a)] {
            prop_assert_eq!(x.covers(y), x.clone().merged(y) == *x);
        }
        prop_assert!(ab.covers(&a) && ab.covers(&b));
        prop_assert!(a.covers(&FmSketch::new(c)));
    }

    #[test]
    fn is_join_of_matches_clone_merge_compare(
        c in 1usize..10,
        ns in prop::array::uniform3(0u64..120),
        seeds in prop::array::uniform3(0u64..1_000),
    ) {
        let a = sketch(c, ns[0], seeds[0]);
        let b = sketch(c, ns[1], seeds[1]);
        let ab = a.clone().merged(&b);
        let d = sketch(c, ns[2], seeds[2]);
        for s in [&ab, &a, &b, &d, &ab.clone().merged(&d)] {
            for (x, y) in [(&a, &b), (&b, &a), (&a, &ab), (&d, &a), (&ab, &d)] {
                prop_assert_eq!(s.is_join_of(x, y), x.clone().merged(y) == *s);
            }
        }
        prop_assert!(ab.is_join_of(&a, &b));
        prop_assert!(a.is_join_of(&a, &a));
    }
}
