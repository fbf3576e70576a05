//! Engine activity over a measured window and the per-layer metrics taken
//! from it. The same counters and phase totals reach the benchmark two
//! ways — a `MetricsSnapshot` in-process, `/metrics` over HTTP — and both
//! are named by the program's own `Counter::name` and `Phase::name`.

use pcod::cod::{Counter, MetricsSnapshot, Phase, COUNTERS, PHASES};

use crate::prom::Scrape;
use crate::report::{ratio, Measured};

/// Window deltas of the engine's query count, phase time and counters.
pub struct EngineDelta {
    queries: f64,
    phase_ns: Vec<(Phase, f64)>,
    counters: Vec<(Counter, f64)>,
}

impl EngineDelta {
    pub fn from_snapshots(a: &MetricsSnapshot, b: &MetricsSnapshot) -> EngineDelta {
        EngineDelta {
            queries: (b.queries - a.queries) as f64,
            phase_ns: PHASES
                .iter()
                .map(|&p| (p, (b.phase_nanos.get(p) - a.phase_nanos.get(p)) as f64))
                .collect(),
            counters: COUNTERS
                .iter()
                .map(|&c| (c, (b.counters.get(c) - a.counters.get(c)) as f64))
                .collect(),
        }
    }

    pub fn from_scrapes(a: &Scrape, b: &Scrape) -> EngineDelta {
        EngineDelta {
            queries: a.delta(b, "cod_queries_total"),
            phase_ns: PHASES
                .iter()
                .map(|&p| (p, 1e9 * a.phase_delta(b, p.name())))
                .collect(),
            counters: COUNTERS
                .iter()
                .map(|&c| (c, a.delta(b, &format!("cod_{}_total", c.name()))))
                .collect(),
        }
    }

    fn phase_ms(&self, p: Phase) -> f64 {
        self.phase_ns
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(0.0, |(_, ns)| ns / 1e6)
    }

    /// Traced time of every phase together.
    pub fn total_ms(&self) -> f64 {
        self.phase_ns.iter().map(|(_, ns)| ns / 1e6).sum()
    }

    fn count(&self, c: Counter) -> f64 {
        self.counters
            .iter()
            .find(|(d, _)| *d == c)
            .map_or(0.0, |(_, n)| *n)
    }

    /// Hits over lookups of a cache.
    fn hit_share(&self, hits: Counter, misses: Counter) -> f64 {
        let h = self.count(hits);
        ratio(h, h + self.count(misses))
    }

    /// The pool and recluster caches' hit shares.
    pub fn cache_shares(&self) -> (f64, f64) {
        (
            self.hit_share(Counter::PoolHits, Counter::PoolMisses),
            self.hit_share(Counter::CacheHits, Counter::CacheMisses),
        )
    }

    /// The per-layer metrics every engine-fronted workload shares.
    /// `codl_queries` is the denominator of the index hit share.
    pub fn record(&self, m: &mut Measured, codl_queries: f64) {
        let per_q = |v: f64| ratio(v, self.queries);
        let (pool, recluster) = self.cache_shares();
        m.layer("engine.plan_ms", per_q(self.phase_ms(Phase::Plan)));
        m.layer(
            "himor.hit_share",
            ratio(self.count(Counter::HimorIndexHits), codl_queries),
        );
        m.layer(
            "recluster.ms_per_query",
            per_q(self.phase_ms(Phase::Recluster)),
        );
        m.layer("recluster.hit_share", recluster);
        m.layer(
            "influence.sample_ms_per_query",
            per_q(self.phase_ms(Phase::Sample)),
        );
        let rr_edges = self.count(Counter::RrEdgesTraversed);
        m.layer(
            "influence.rr_graphs_per_query",
            per_q(self.count(Counter::RrGraphsSampled)),
        );
        m.layer("influence.rr_edges_per_query", per_q(rr_edges));
        m.layer(
            "influence.ns_per_rr_edge",
            ratio(self.phase_ms(Phase::Sample) * 1e6, rr_edges),
        );
        m.layer(
            "compressed.topk_ms_per_query",
            per_q(self.phase_ms(Phase::TopK)),
        );
        m.layer(
            "compressed.topk_ops_per_query",
            per_q(self.count(Counter::TopKHeapOps)),
        );
        m.layer(
            "compressed.hfs_nodes_per_query",
            per_q(self.count(Counter::HfsNodesVisited)),
        );
        m.layer("pool.hit_share", pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_and_snapshot_deltas_agree_on_names() {
        let a = Scrape::parse("cod_queries_total 2\ncod_pool_hits_total 1\n").unwrap();
        let b = Scrape::parse(
            "cod_queries_total 6\ncod_pool_hits_total 4\ncod_pool_misses_total 1\n\
             cod_phase_seconds_total{phase=\"sample\"} 0.008\n\
             cod_rr_edges_traversed_total 4000\n",
        )
        .unwrap();
        let d = EngineDelta::from_scrapes(&a, &b);
        assert_eq!(d.queries, 4.0);
        assert_eq!(d.count(Counter::PoolHits), 3.0);
        assert_eq!(d.cache_shares().0, 0.75);
        assert!((d.phase_ms(Phase::Sample) - 8.0).abs() < 1e-9);
        let mut m = Measured::default();
        d.record(&mut m, 4.0);
        assert!((m.layers["influence.ns_per_rr_edge"] - 2000.0).abs() < 1e-6);
        assert!((m.layers["influence.sample_ms_per_query"] - 2.0).abs() < 1e-9);
        assert_eq!(m.layers["recluster.hit_share"], 0.0);
    }
}
