//! Cross-crate integration tests: full COD pipelines on generated datasets.

use pcod::cod::measures::{answer_quality, is_truly_top_k};
use pcod::prelude::*;
use rand::prelude::*;

fn small_dataset() -> pcod::datasets::Dataset {
    pcod::datasets::amazon_like_scaled(1200, 99)
}

fn cfg(k: usize) -> CodConfig {
    CodConfig {
        k,
        theta: 30,
        ..CodConfig::default()
    }
}

#[test]
fn all_methods_answer_a_workload() {
    let data = small_dataset();
    let g = &data.graph;
    let mut rng = SmallRng::seed_from_u64(1);
    let queries = pcod::datasets::gen_queries(g, 12, &mut rng);

    let c = cfg(5);
    let engine = CodEngine::new(g.clone(), c);
    engine.ensure_himor(&mut rng).unwrap();

    let mut answered = [0usize; 4];
    for &(q, a) in &queries {
        let answers = [
            engine.query(Query::codu(q), &mut rng).unwrap(),
            engine
                .query(Query::new(q, a, Method::Codr), &mut rng)
                .unwrap(),
            engine
                .query(Query::new(q, a, Method::CodlMinus), &mut rng)
                .unwrap(),
            engine
                .query(Query::new(q, a, Method::Codl), &mut rng)
                .unwrap(),
        ];
        for (i, ans) in answers.iter().enumerate() {
            if let Some(ans) = ans {
                answered[i] += 1;
                assert!(ans.members.binary_search(&q).is_ok(), "answer contains q");
                assert!(
                    ans.members.windows(2).all(|w| w[0] < w[1]),
                    "sorted, unique"
                );
                assert!(ans.rank <= c.k, "reported rank respects k");
                let quality = answer_quality(g, a, Some(ans));
                assert!(quality.size >= 2.0, "communities have at least two nodes");
                assert!((0.0..=1.0).contains(&quality.topology_density));
                assert!((0.0..=1.0).contains(&quality.attribute_density));
            }
        }
    }
    // At k = 5 most queries should be answerable by the hierarchy methods.
    for (i, name) in ["CODU", "CODR", "CODL-", "CODL"].iter().enumerate() {
        assert!(
            answered[i] >= queries.len() / 2,
            "{name} answered only {}/{} queries",
            answered[i],
            queries.len()
        );
    }
}

#[test]
fn answers_are_usually_truly_top_k() {
    // Top-k precision sanity: CODL's claimed communities should mostly
    // survive a high-θ ground-truth check (paper §V-C reports precision
    // near 1 for the compressed approach).
    let data = small_dataset();
    let g = &data.graph;
    let mut rng = SmallRng::seed_from_u64(2);
    let queries = pcod::datasets::gen_queries(g, 10, &mut rng);
    let c = cfg(5);
    let engine = CodEngine::new(g.clone(), c);
    engine.ensure_himor(&mut rng).unwrap();
    let mut checked = 0;
    let mut correct = 0;
    for &(q, a) in &queries {
        if let Some(ans) = engine
            .query(Query::new(q, a, Method::Codl), &mut rng)
            .unwrap()
        {
            if ans.members.len() > 400 {
                continue; // keep the ground-truth check cheap
            }
            checked += 1;
            if is_truly_top_k(g, c.model, &ans.members, q, c.k, 200, &mut rng) {
                correct += 1;
            }
        }
    }
    assert!(checked >= 3, "need some answers to check");
    assert!(
        correct * 3 >= checked * 2,
        "top-k precision too low: {correct}/{checked}"
    );
}

#[test]
fn community_size_grows_with_k() {
    let data = small_dataset();
    let g = &data.graph;
    let mut rng = SmallRng::seed_from_u64(3);
    let queries = pcod::datasets::gen_queries(g, 8, &mut rng);
    let mut avg_sizes = Vec::new();
    for k in [1usize, 3, 5] {
        let c = cfg(k);
        let engine = CodEngine::new(g.clone(), c);
        // Reseed per k so the three runs share their randomness as much as
        // possible; residual noise at the rank boundary is tolerated below.
        let mut krng = SmallRng::seed_from_u64(33);
        let mut total = 0f64;
        for &(q, _) in &queries {
            if let Some(ans) = engine.query(Query::codu(q), &mut krng).unwrap() {
                total += ans.size() as f64;
            }
        }
        avg_sizes.push(total / queries.len() as f64);
    }
    // Fig. 7(a)-(f): average size increases (weakly, modulo sampling noise)
    // with k.
    assert!(
        avg_sizes[0] <= avg_sizes[1] + 2.0 && avg_sizes[1] <= avg_sizes[2] * 1.25 + 2.0,
        "sizes should grow with k: {avg_sizes:?}"
    );
    assert!(
        avg_sizes[2] > avg_sizes[0],
        "k=5 must beat k=1 clearly: {avg_sizes:?}"
    );
    let _ = rng;
}

#[test]
fn codl_agrees_with_codl_minus_on_found_levels() {
    // CODL (index) and CODL⁻ (no index) share LORE's chain; when both
    // answer, the community CODL returns must be at least as large — the
    // index scans top-down for the largest qualifying ancestor while both
    // use the same estimates modulo sampling noise.
    let data = small_dataset();
    let g = &data.graph;
    let mut rng = SmallRng::seed_from_u64(4);
    let queries = pcod::datasets::gen_queries(g, 10, &mut rng);
    let c = cfg(5);
    let engine = CodEngine::new(g.clone(), c);
    engine.ensure_himor(&mut rng).unwrap();
    let mut both = 0;
    let mut close = 0;
    for &(q, a) in &queries {
        let x = engine
            .query(Query::new(q, a, Method::Codl), &mut rng)
            .unwrap();
        let y = engine
            .query(Query::new(q, a, Method::CodlMinus), &mut rng)
            .unwrap();
        if let (Some(x), Some(y)) = (x, y) {
            both += 1;
            // Same chain; estimates are independent, so a borderline rank
            // can move the chosen level. Require that *most* answers land
            // within a small size factor rather than every single one.
            let (big, small) = if x.size() >= y.size() {
                (x.size() as f64, y.size() as f64)
            } else {
                (y.size() as f64, x.size() as f64)
            };
            if big / small < 20.0 {
                close += 1;
            }
        }
    }
    assert!(both >= 3, "need overlapping answers, got {both}");
    assert!(
        close * 2 >= both,
        "CODL and CODL- diverge too often: {close}/{both} close"
    );
}

#[test]
fn baselines_and_cod_find_reasonable_communities() {
    use cod_search::atc::AtcParams;
    let data = small_dataset();
    let g = &data.graph;
    let mut rng = SmallRng::seed_from_u64(5);
    let queries = pcod::datasets::gen_queries(g, 15, &mut rng);
    for &(q, a) in &queries {
        if let Some(c) = pcod::search::acq_query(g, q, a, 2) {
            assert!(c.binary_search(&q).is_ok());
            // Every member carries the attribute — ACQ's contract.
            assert!(c.iter().all(|&v| g.has_attr(v, a)));
        }
        if let Some(c) = pcod::search::cac_query(g, q, a) {
            assert!(c.binary_search(&q).is_ok());
            assert!(c.iter().all(|&v| g.has_attr(v, a)));
            assert!(c.len() >= 3, "a truss community spans a triangle");
        }
        if let Some(c) = pcod::search::atc_query(g, q, a, AtcParams::default()) {
            assert!(c.binary_search(&q).is_ok());
            assert!(c.len() >= 3);
        }
    }
}
