//! Partition-agreement metrics: normalized mutual information and the
//! adjusted Rand index.
//!
//! They validate that the dataset presets' hierarchies actually recover
//! the planted ground-truth communities (a realism check on the
//! substitutions of `DESIGN.md` §5), and are available downstream for
//! evaluating flat cuts of a community hierarchy.

use crate::fxhash::FxHashMap;

/// Contingency table between two label vectors over the same nodes.
struct Contingency {
    joint: FxHashMap<(u32, u32), u64>,
    a_sizes: FxHashMap<u32, u64>,
    b_sizes: FxHashMap<u32, u64>,
    n: u64,
}

impl Contingency {
    fn new(a: &[u32], b: &[u32]) -> Self {
        assert_eq!(a.len(), b.len(), "label vectors must align");
        let mut joint: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        let mut a_sizes: FxHashMap<u32, u64> = FxHashMap::default();
        let mut b_sizes: FxHashMap<u32, u64> = FxHashMap::default();
        for (&x, &y) in a.iter().zip(b) {
            *joint.entry((x, y)).or_insert(0) += 1;
            *a_sizes.entry(x).or_insert(0) += 1;
            *b_sizes.entry(y).or_insert(0) += 1;
        }
        Self {
            joint,
            a_sizes,
            b_sizes,
            n: a.len() as u64,
        }
    }
}

/// Normalized mutual information `I(A;B) / sqrt(H(A)·H(B))` in `[0, 1]`.
/// By convention two single-cluster partitions score 1 and comparisons
/// with a zero-entropy partition score 0 otherwise.
pub fn nmi(a: &[u32], b: &[u32]) -> f64 {
    let c = Contingency::new(a, b);
    if c.n == 0 {
        return 1.0;
    }
    let n = c.n as f64;
    let h = |sizes: &FxHashMap<u32, u64>| -> f64 {
        sizes
            .values()
            .map(|&s| {
                let p = s as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let ha = h(&c.a_sizes);
    let hb = h(&c.b_sizes);
    if ha == 0.0 && hb == 0.0 {
        return 1.0;
    }
    if ha == 0.0 || hb == 0.0 {
        return 0.0;
    }
    let mut mi = 0.0;
    for (&(x, y), &cnt) in &c.joint {
        let pxy = cnt as f64 / n;
        let px = c.a_sizes[&x] as f64 / n;
        let py = c.b_sizes[&y] as f64 / n;
        mi += pxy * (pxy / (px * py)).ln();
    }
    (mi / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

/// Adjusted Rand index in `[-1, 1]` (1 = identical partitions, ~0 =
/// chance agreement). Returns 1 when both partitions are trivial.
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    let c = Contingency::new(a, b);
    if c.n < 2 {
        return 1.0;
    }
    let choose2 = |x: u64| -> f64 { (x * x.saturating_sub(1)) as f64 / 2.0 };
    let sum_ij: f64 = c.joint.values().map(|&x| choose2(x)).sum();
    let sum_a: f64 = c.a_sizes.values().map(|&x| choose2(x)).sum();
    let sum_b: f64 = c.b_sizes.values().map(|&x| choose2(x)).sum();
    let total = choose2(c.n);
    let expected = sum_a * sum_b / total;
    let max = (sum_a + sum_b) / 2.0;
    if (max - expected).abs() < 1e-12 {
        return 1.0;
    }
    (sum_ij - expected) / (max - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_score_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((nmi(&a, &a) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabeling_does_not_matter() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![5, 5, 9, 9, 7, 7];
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_partitions_score_low() {
        // Alternating vs block labels over 8 nodes: knowing one tells you
        // nothing about the other.
        let a = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let b = vec![0, 0, 0, 0, 1, 1, 1, 1];
        assert!(nmi(&a, &b) < 0.01);
        assert!(adjusted_rand_index(&a, &b).abs() < 0.2);
    }

    #[test]
    fn trivial_partition_conventions() {
        let one = vec![0, 0, 0, 0];
        let many = vec![0, 1, 2, 3];
        assert!((nmi(&one, &one) - 1.0).abs() < 1e-12);
        assert_eq!(nmi(&one, &many), 0.0);
        assert!((adjusted_rand_index(&one, &one) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_agreement_is_between_zero_and_one() {
        let a = vec![0, 0, 0, 1, 1, 1];
        let b = vec![0, 0, 1, 1, 1, 1];
        let x = nmi(&a, &b);
        assert!(x > 0.2 && x < 1.0, "nmi {x}");
        let r = adjusted_rand_index(&a, &b);
        assert!(r > 0.2 && r < 1.0, "ari {r}");
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        let _ = nmi(&[0, 1], &[0]);
    }
}
