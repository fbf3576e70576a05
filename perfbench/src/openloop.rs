//! The open-loop arrival schedule: seeded Poisson arrivals, each with a
//! query target, fixed before the window starts so a slow server cannot
//! slow the offered load.

use std::time::Duration;

use pcod::datasets::gen_queries;
use pcod::graph::{AttrId, AttributedGraph, NodeId};
use rand::prelude::*;

/// One scheduled request: when it is due (from the window start) and what
/// it asks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub node: NodeId,
    pub attr: AttrId,
}

/// Poisson arrivals at `rate` per second over `window`. Targets are the
/// paper's query workload: a uniform node paired with one of its own
/// attributes (`cod_datasets::gen_queries`).
pub fn schedule(g: &AttributedGraph, rate: f64, window: Duration, seed: u64) -> Vec<Arrival> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut dues = Vec::new();
    let mut t = 0.0;
    loop {
        // Exponential gap by inversion; 1 − u lies in (0, 1], so ln is finite.
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= window.as_secs_f64() {
            break;
        }
        dues.push(Duration::from_secs_f64(t));
    }
    let targets = gen_queries(g, dues.len(), &mut rng);
    dues.into_iter()
        .zip(targets)
        .map(|(due, (node, attr))| Arrival { due, node, attr })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_due_times_and_targets() {
        let g = pcod::datasets::cora_like(3).graph;
        let window = Duration::from_secs(5);
        let a = schedule(&g, 100.0, window, 11);
        let b = schedule(&g, 100.0, window, 11);
        assert_eq!(a, b);
        let c = schedule(&g, 100.0, window, 12);
        assert_ne!(a, c, "another seed must give another schedule");
    }

    #[test]
    fn arrivals_are_ordered_within_the_window_at_about_the_rate() {
        let g = pcod::datasets::cora_like(3).graph;
        let window = Duration::from_secs(20);
        let a = schedule(&g, 100.0, window, 5);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.due < window));
        // 2000 expected arrivals; a Poisson count is within ±5σ (±224).
        assert!((1776..=2224).contains(&a.len()), "{} arrivals", a.len());
        // Every target asks one of the node's own attributes.
        assert!(a.iter().all(|x| g.node_attrs(x.node).contains(&x.attr)));
    }
}
