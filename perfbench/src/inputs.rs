//! Seeded input generation. The seed decides which kernels a pass runs
//! and in what order (batch workloads) or which requests arrive when
//! (`serve-mix`); the program only ever sees the generated inputs.

use fits_kernels::kernels::Kernel;
use fits_rng::StdRng;

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `suite-n64` pass `pass`: every kernel, in an order drawn afresh for
/// every pass from `seed`. On two workers the kernels that happen to
/// start last set a pass's tail, so a run's median pass is taken over
/// several orders rather than resting on one.
#[must_use]
pub fn suite_order(seed: u64, pass: usize) -> Vec<Kernel> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kernels = Kernel::ALL.to_vec();
    for _ in 0..=pass {
        shuffle(&mut rng, &mut kernels);
    }
    kernels
}

/// `paper-n4096` pass `pass`: every kernel but `stringsearch`, in the
/// order of [`suite_order`]. Alone, `stringsearch` takes ~7.9 s at this
/// scale (the other twenty together ~12.7 s of CPU), so on two workers it
/// would be the critical path of every pass.
#[must_use]
pub fn paper_order(seed: u64, pass: usize) -> Vec<Kernel> {
    suite_order(seed, pass)
        .into_iter()
        .filter(|k| k.name() != "stringsearch")
        .collect()
}

/// Member sets one `pareto-grid` pass synthesizes.
pub const PARETO_GROUPS: usize = 7;

/// `pareto-grid` pass `pass`: the [`suite_order`] dealt into
/// [`PARETO_GROUPS`] member sets of three. Every pass covers every kernel
/// exactly once; the median pass of a run is taken over several
/// partitions, so it does not rest on how costly one partition's shared
/// syntheses happen to be.
#[must_use]
pub fn pareto_groups(seed: u64, pass: usize) -> Vec<Vec<Kernel>> {
    suite_order(seed, pass)
        .chunks(Kernel::ALL.len() / PARETO_GROUPS)
        .map(<[Kernel]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(suite_order(7, 1), suite_order(7, 1));
        assert_eq!(paper_order(7, 1), paper_order(7, 1));
        assert_eq!(pareto_groups(7, 2), pareto_groups(7, 2));
        assert_ne!(pareto_groups(7, 0), pareto_groups(7, 1));
        assert_ne!(suite_order(7, 0), suite_order(8, 0));
        assert_ne!(suite_order(7, 0), suite_order(7, 1));
    }

    #[test]
    fn suite_order_is_a_permutation() {
        let mut names: Vec<_> = suite_order(3, 2).iter().map(|k| k.name()).collect();
        names.sort_unstable();
        let mut all: Vec<_> = Kernel::ALL.iter().map(|k| k.name()).collect();
        all.sort_unstable();
        assert_eq!(names, all);
    }

    #[test]
    fn paper_order_is_the_suite_but_stringsearch() {
        let order = paper_order(3, 2);
        assert_eq!(order.len(), Kernel::ALL.len() - 1);
        assert!(!order.iter().any(|k| k.name() == "stringsearch"));
        let rest: Vec<Kernel> = suite_order(3, 2)
            .into_iter()
            .filter(|k| k.name() != "stringsearch")
            .collect();
        assert_eq!(order, rest);
    }

    #[test]
    fn pareto_groups_partition_the_suite() {
        let groups = pareto_groups(11, 3);
        assert_eq!(groups.len(), PARETO_GROUPS);
        assert!(groups.iter().all(|g| g.len() == 3));
        let n: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(n, Kernel::ALL.len());
    }
}
