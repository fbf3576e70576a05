//! Plain-text graph I/O.
//!
//! Formats:
//!
//! * **edge list** — one `u v` pair per line; `#`-prefixed comment lines and
//!   blank lines are skipped;
//! * **attribute list** — one `node attr1 attr2 ...` line per node that has
//!   attributes; attribute tokens are interned as names.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use crate::attr::{AttrInterner, AttrTable};
use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::{AttributedGraph, NodeId};

/// Errors from graph parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying file/stream error.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number and content (truncated to
    /// [`SNIPPET_MAX`] characters so a pathological line cannot flood logs
    /// or terminal output).
    Parse { line: usize, content: String },
    /// An edge list whose largest node id, first named on 1-based `line`,
    /// is past [`NODES_PER_EDGE_LINE`] times its `edge_lines`: the node
    /// arrays it asks for would dwarf the file.
    NodeIdTooLarge {
        line: usize,
        node: NodeId,
        edge_lines: usize,
    },
}

/// Node ids an edge list may span per edge line it holds: a file of `m`
/// edge lines may name ids below `NODES_PER_EDGE_LINE · m`. An edge line
/// names at most two nodes, so past this bound nearly every node would be
/// isolated, and sizing the graph by a stray large id would allocate far
/// more than the file holds.
pub const NODES_PER_EDGE_LINE: usize = 16;

/// Longest line excerpt kept in an [`IoError::Parse`].
pub const SNIPPET_MAX: usize = 120;

/// Truncates a malformed line to [`SNIPPET_MAX`] characters for error
/// reporting, marking the cut with an ellipsis.
fn snippet(t: &str) -> String {
    if t.chars().count() <= SNIPPET_MAX {
        t.to_owned()
    } else {
        let mut s: String = t.chars().take(SNIPPET_MAX).collect();
        s.push('…');
        s
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "parse error on line {line}: {content:?}")
            }
            IoError::NodeIdTooLarge {
                line,
                node,
                edge_lines,
            } => write!(
                f,
                "node id {node} on line {line} is out of range: {edge_lines} edge line(s) \
                 may name ids below {}",
                NODES_PER_EDGE_LINE.saturating_mul(*edge_lines)
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses an edge list from a reader. The node count is one past the
/// largest id, which must lie below [`NODES_PER_EDGE_LINE`] times the
/// number of edge lines ([`IoError::NodeIdTooLarge`] otherwise).
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Csr, IoError> {
    let mut b = GraphBuilder::new(0);
    let mut line = String::new();
    let mut reader = reader;
    let mut lineno = 0usize;
    let mut edge_lines = 0usize;
    // The largest id so far and the line that first named it.
    let mut largest: Option<(NodeId, usize)> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(IoError::Parse {
                    line: lineno,
                    content: snippet(t),
                })
            }
        };
        let u: NodeId = u.parse().map_err(|_| IoError::Parse {
            line: lineno,
            content: snippet(t),
        })?;
        let v: NodeId = v.parse().map_err(|_| IoError::Parse {
            line: lineno,
            content: snippet(t),
        })?;
        edge_lines += 1;
        let top = u.max(v);
        if largest.is_none_or(|(id, _)| top > id) {
            largest = Some((top, lineno));
        }
        b.add_edge(u, v);
    }
    if let Some((node, line)) = largest {
        if node as usize >= NODES_PER_EDGE_LINE.saturating_mul(edge_lines) {
            return Err(IoError::NodeIdTooLarge {
                line,
                node,
                edge_lines,
            });
        }
    }
    Ok(b.build())
}

/// Parses an attribute list from a reader, interning attribute tokens.
/// `num_nodes` fixes the table size (nodes without lines get no attributes).
pub fn read_attr_list<R: BufRead>(
    reader: R,
    num_nodes: usize,
) -> Result<(AttrTable, AttrInterner), IoError> {
    let mut interner = AttrInterner::new();
    let mut lists = vec![Vec::new(); num_nodes];
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let v: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| IoError::Parse {
                line: lineno,
                content: snippet(t),
            })?;
        if v >= num_nodes {
            return Err(IoError::Parse {
                line: lineno,
                content: snippet(t),
            });
        }
        for tok in it {
            lists[v].push(interner.intern(tok));
        }
    }
    Ok((AttrTable::from_lists(lists), interner))
}

/// Loads an attributed graph from an edge-list file and an optional
/// attribute file.
pub fn load_attributed(
    edges_path: &Path,
    attrs_path: Option<&Path>,
) -> Result<AttributedGraph, IoError> {
    let f = std::fs::File::open(edges_path)?;
    let csr = read_edge_list(std::io::BufReader::new(f))?;
    match attrs_path {
        None => Ok(AttributedGraph::unattributed(csr)),
        Some(p) => {
            let f = std::fs::File::open(p)?;
            let (attrs, interner) = read_attr_list(std::io::BufReader::new(f), csr.num_nodes())?;
            Ok(AttributedGraph::from_parts(csr, attrs, interner))
        }
    }
}

/// Writes the edge list of `g` (one `u v` line per undirected edge).
pub fn write_edge_list<W: Write>(g: &Csr, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Writes the attribute list of `g` (named attributes where interned,
/// numeric ids otherwise).
pub fn write_attr_list<W: Write>(g: &AttributedGraph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for v in 0..g.num_nodes() as NodeId {
        let attrs = g.node_attrs(v);
        if attrs.is_empty() {
            continue;
        }
        write!(w, "{v}")?;
        for &a in attrs {
            match g.interner().name(a) {
                Some(name) => write!(w, " {name}")?,
                None => write!(w, " {a}")?,
            }
        }
        writeln!(w)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn edge_list_round_trip() {
        let input = "# comment\n0 1\n1 2\n\n2 0\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(Cursor::new(out)).unwrap();
        assert_eq!(g2.num_edges(), 3);
        assert!(g2.has_edge(2, 0));
    }

    #[test]
    fn malformed_edge_line_is_reported() {
        let err = read_edge_list(Cursor::new("0 1\nbogus\n")).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn malformed_line_content_is_truncated() {
        let long = format!("x{}", "y".repeat(4000));
        let err = read_edge_list(Cursor::new(format!("0 1\n{long}\n"))).unwrap_err();
        match err {
            IoError::Parse { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(
                    content.chars().count(),
                    SNIPPET_MAX + 1,
                    "120 chars + ellipsis"
                );
                assert!(content.ends_with('…'));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn a_node_id_past_the_per_line_bound_is_a_typed_error() {
        let err = read_edge_list(Cursor::new("0 1\n# c\n0 4000000000\n2 3\n")).unwrap_err();
        match err {
            IoError::NodeIdTooLarge {
                line,
                node,
                edge_lines,
            } => assert_eq!((line, node, edge_lines), (3, 4_000_000_000, 3)),
            other => panic!("unexpected: {other}"),
        }
        // The bound is exclusive: one line may name ids below 16.
        let edge = |v: u32| read_edge_list(Cursor::new(format!("0 {v}\n")));
        assert_eq!(
            edge(NODES_PER_EDGE_LINE as u32 - 1).unwrap().num_nodes(),
            16
        );
        assert!(matches!(
            edge(NODES_PER_EDGE_LINE as u32),
            Err(IoError::NodeIdTooLarge { line: 1, .. })
        ));
    }

    #[test]
    fn attr_list_parses_names() {
        let (t, i) = read_attr_list(Cursor::new("0 DB ML\n2 DB\n"), 3).unwrap();
        let db = i.get("DB").unwrap();
        let ml = i.get("ML").unwrap();
        assert!(t.has(0, db) && t.has(0, ml));
        assert!(t.has(2, db) && !t.has(2, ml));
        assert!(t.of(1).is_empty());
    }

    #[test]
    fn attr_list_rejects_out_of_range_node() {
        assert!(read_attr_list(Cursor::new("7 DB\n"), 3).is_err());
    }

    #[test]
    fn attr_write_round_trip() {
        let (t, i) = read_attr_list(Cursor::new("0 A\n1 B A\n"), 2).unwrap();
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = AttributedGraph::from_parts(b.build(), t, i);
        let mut out = Vec::new();
        write_attr_list(&g, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("0 A"));
        assert!(s.contains("1 A B"));
    }
}
