//! Truncation and bit-flip fuzzing of the plain-text parsers: the edge
//! list and the attribute list (`cod_graph::io`) and the `cod mutate` log
//! (`mutation::parse_text`). Every prefix and every single-bit flip of a
//! small well-formed input must parse to `Ok` or a typed error, never a
//! panic, and an edge list never sizes the graph past what its lines can
//! name. (CODX, CODW, the MANIFEST, HTTP and JSON have their own suites.)

use pcod::cod::mutation::parse_text;
use pcod::graph::io::{read_attr_list, read_edge_list, IoError};

const EDGES: &str = "# a two-triangle graph\n0 1\n1 2\n2 0\n\n3 4\n4 5\n5 3\n2 3\n";
const ATTRS: &str = "0 DB ML\n1 DB\n# comment\n\n2 ML\n5 IR DB\n";
const MUTATIONS: &str = "add 0 6\ndel 2 3 # trailing comment\nattrs 4 1,2\nattrs 5\n# skip\n\n";

/// Calls `check` on every prefix of `input` and on every copy of it with
/// one bit flipped.
fn each_truncation_and_bit_flip(input: &[u8], mut check: impl FnMut(&[u8])) {
    for end in 0..=input.len() {
        check(&input[..end]);
    }
    for i in 0..input.len() {
        for bit in 0..8 {
            let mut flipped = input.to_vec();
            flipped[i] ^= 1 << bit;
            check(&flipped);
        }
    }
}

#[test]
fn edge_list_truncations_and_bit_flips_never_panic() {
    assert_eq!(read_edge_list(EDGES.as_bytes()).unwrap().num_edges(), 7);
    each_truncation_and_bit_flip(EDGES.as_bytes(), |bytes| {
        let _ = read_edge_list(bytes);
    });
}

/// A stray large id is a typed error naming its line, not a graph sized
/// by it: one line `0 4000000000` would ask for a 32 GB node array. No
/// prefix or one-bit flip of it allocates one either.
#[test]
fn an_edge_list_naming_a_huge_id_is_a_typed_error() {
    const HUGE: &str = "0 1\n0 4000000000\n";
    assert!(matches!(
        read_edge_list(HUGE.as_bytes()),
        Err(IoError::NodeIdTooLarge {
            line: 2,
            node: 4_000_000_000,
            edge_lines: 2
        })
    ));
    each_truncation_and_bit_flip(HUGE.as_bytes(), |bytes| {
        let _ = read_edge_list(bytes);
    });
}

#[test]
fn attr_list_truncations_and_bit_flips_never_panic() {
    let (table, interner) = read_attr_list(ATTRS.as_bytes(), 6).unwrap();
    assert_eq!((table.of(5).len(), interner.len()), (2, 3));
    each_truncation_and_bit_flip(ATTRS.as_bytes(), |bytes| {
        let _ = read_attr_list(bytes, 6);
    });
}

/// `parse_text` takes `&str`, so only inputs that stay valid UTF-8 reach it.
#[test]
fn mutation_log_truncations_and_bit_flips_never_panic() {
    assert_eq!(parse_text(MUTATIONS).unwrap().len(), 4);
    each_truncation_and_bit_flip(MUTATIONS.as_bytes(), |bytes| {
        if let Ok(text) = std::str::from_utf8(bytes) {
            let _ = parse_text(text);
        }
    });
}
