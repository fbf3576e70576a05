//! Engine-boundary validation: invalid queries fail identically through
//! every entry point, and validation happens before any randomness or
//! heavy work is consumed.

use pcod::prelude::*;
use rand::prelude::*;

fn dataset() -> pcod::datasets::Dataset {
    pcod::datasets::amazon_like_scaled(120, 5)
}

fn cfg() -> CodConfig {
    CodConfig {
        k: 3,
        theta: 8,
        parallelism: Parallelism::Threads(2),
        ..CodConfig::default()
    }
}

/// Every variant — each method through each engine entry point (single
/// query, batch, per-call limits) — rejects the same invalid `(q, attr)`
/// with the same `InvalidQuery` message. Validation is hoisted to the
/// engine boundary, so a drift between variants means one path grew its
/// own (wrong) checks.
#[test]
fn invalid_queries_error_identically_through_every_variant() {
    let data = dataset();
    let g = &data.graph;
    let n = g.num_nodes();
    let bad_node: NodeId = n as NodeId + 7;
    let bad_attr: AttrId = g.num_attrs() as AttrId + 3;
    let mut rng = SmallRng::seed_from_u64(11);
    let engine = CodEngine::new(g.clone(), cfg());
    let limits = QueryLimits {
        deadline: Some(std::time::Duration::from_secs(600)),
        ..QueryLimits::default()
    };
    let mut errors = |query: Query| -> Vec<String> {
        let batch = engine.query_batch(&[query], &mut rng).pop().unwrap();
        [
            engine.query(query, &mut rng),
            batch,
            engine.query_with_limits(query, &limits, &mut rng),
        ]
        .into_iter()
        .map(|r| r.unwrap_err().to_string())
        .collect()
    };

    // Out-of-range node, through every method and entry point.
    let mut node_errors = errors(Query::codu(bad_node));
    for method in [Method::Codr, Method::CodlMinus, Method::Codl] {
        node_errors.extend(errors(Query::new(bad_node, 0, method)));
    }
    let expected =
        format!("invalid query: query node {bad_node} out of range (graph has {n} nodes)");
    for (i, msg) in node_errors.iter().enumerate() {
        assert_eq!(msg, &expected, "variant {i} diverged");
    }

    // Unknown attribute, through every attribute-taking method.
    let m = g.num_attrs();
    let mut attr_errors = Vec::new();
    for method in [Method::Codr, Method::CodlMinus, Method::Codl] {
        attr_errors.extend(errors(Query::new(0, bad_attr, method)));
    }
    let expected = format!(
        "invalid query: unknown attribute id {bad_attr} (graph has {m} interned attributes)"
    );
    for (i, msg) in attr_errors.iter().enumerate() {
        assert_eq!(msg, &expected, "variant {i} diverged");
    }

    // Bad config parameters surface through the engine the same way.
    for bad in [CodConfig { k: 0, ..cfg() }, CodConfig { theta: 0, ..cfg() }] {
        let engine = CodEngine::new(g.clone(), bad);
        for method in [Method::Codu, Method::Codr, Method::CodlMinus, Method::Codl] {
            let err = engine
                .query(
                    Query {
                        node: 0,
                        attr: Some(0),
                        method,
                    },
                    &mut rng,
                )
                .unwrap_err();
            assert!(
                matches!(err, CodError::InvalidQuery(_)),
                "{method:?}: {err}"
            );
        }
    }
}

/// Invalid queries are settled during planning, before any seed draw: the
/// caller's RNG stream is untouched, so a batch with rejected queries in it
/// yields the same answers as the same batch without them.
#[test]
fn rejected_queries_consume_no_randomness() {
    let data = dataset();
    let g = &data.graph;
    let bad = g.num_nodes() as NodeId + 1;
    let valid: Vec<Query> = vec![Query::codu(0), Query::new(3, 0, Method::Codr)];
    let mut with_junk: Vec<Query> = vec![Query::codu(bad)];
    with_junk.extend(&valid);
    with_junk.insert(2, Query::new(bad, 0, Method::Codr));

    let run = |queries: &[Query]| {
        let engine = CodEngine::new(g.clone(), cfg());
        let mut rng = SmallRng::seed_from_u64(21);
        engine
            .query_batch(queries, &mut rng)
            .into_iter()
            .filter_map(|r| r.ok())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(&with_junk),
        run(&valid),
        "rejected queries shifted the seed stream"
    );
}

/// The engine never builds the HIMOR index for queries that fail
/// validation — the expensive lazy artifacts stay untouched.
#[test]
fn invalid_codl_query_does_not_build_the_index() {
    let data = dataset();
    let g = &data.graph;
    let engine = CodEngine::new(g.clone(), cfg());
    let bad = g.num_nodes() as NodeId + 1;
    let mut rng = SmallRng::seed_from_u64(5);
    let err = engine.query(Query::new(bad, 0, Method::Codl), &mut rng);
    assert!(err.is_err());
    assert!(
        engine.himor().is_none(),
        "validation must run before index construction"
    );
}
