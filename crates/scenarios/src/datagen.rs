//! Seeded deterministic value generation — the ToXgene substitute.
//!
//! The paper populates source instances with iBench's ToXgene-based data
//! generator. All our experiments need from it is: deterministic values,
//! unique keys, bounded value domains (so that egds and script reuse have
//! something to bite on), and reproducibility across runs.

use sedex_storage::Value;

use crate::rng::SmallRng;

/// Deterministic value source for one scenario population run.
#[derive(Debug)]
pub struct DataGen {
    rng: SmallRng,
    /// Non-key values are drawn from a domain of this many distinct values
    /// per column (bounded domains produce realistic duplicate rates).
    pub domain: usize,
}

impl DataGen {
    /// A generator with the given seed and a default domain of 1000 values
    /// per column.
    pub fn new(seed: u64) -> Self {
        DataGen {
            rng: SmallRng::seed_from_u64(seed),
            domain: 1000,
        }
    }

    /// Override the per-column domain size.
    pub fn with_domain(mut self, domain: usize) -> Self {
        self.domain = domain.max(1);
        self
    }

    /// A unique key value for row `row` of `relation`.
    pub fn key(&mut self, relation: &str, row: usize) -> Value {
        Value::text(format!("{relation}#{row}"))
    }

    /// A non-key value for `column`, drawn from the bounded domain.
    pub fn value(&mut self, column: &str, _row: usize) -> Value {
        let v = self.rng.gen_index(self.domain);
        Value::text(format!("{column}-{v}"))
    }

    /// Pick a random index below `n` (for foreign-key targets).
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_index(n)
    }

    /// A random boolean with the given probability of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DataGen::new(42);
        let mut b = DataGen::new(42);
        for i in 0..10 {
            assert_eq!(a.value("c", i), b.value("c", i));
            assert_eq!(a.pick(100), b.pick(100));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DataGen::new(1);
        let mut b = DataGen::new(2);
        let va: Vec<Value> = (0..20).map(|i| a.value("c", i)).collect();
        let vb: Vec<Value> = (0..20).map(|i| b.value("c", i)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn keys_are_unique_per_row() {
        let mut g = DataGen::new(0);
        let k1 = g.key("R", 1);
        let k2 = g.key("R", 2);
        assert_ne!(k1, k2);
    }

    #[test]
    fn domain_bounds_distinct_values() {
        let mut g = DataGen::new(7).with_domain(3);
        let vals: std::collections::HashSet<Value> = (0..100).map(|i| g.value("c", i)).collect();
        assert!(vals.len() <= 3);
    }
}
