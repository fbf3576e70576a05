//! Mutation events, their text form and invalidation footprints for
//! streaming graphs.
//!
//! [`DynamicCod`](crate::dynamic::DynamicCod) applies three kinds of
//! events — edge insertions, edge deletions and attribute replacements —
//! and repairs its artifacts incrementally. The supporting pieces live
//! here:
//!
//! * [`Mutation`] — one event. Replaying the same events over the same
//!   seed graph with the same configuration reproduces every artifact and
//!   every answer bit-identically (the determinism contract extends to
//!   1/2/8-thread replays; see `tests/mutation.rs`). The CODW write-ahead
//!   log ([`crate::wal`]) is the durable record of applied events; its
//!   records carry the binary event encoding defined here.
//! * [`parse_text`] and `Mutation`'s `Display` — the line-oriented text
//!   form (`add u v` / `del u v` / `attrs v a1,a2`) that `cod mutate`
//!   reads and labels each event with.
//! * [`Footprint`] — the set of nodes and attributes an event can
//!   influence, used for *scoped* cache invalidation: only RR pools and
//!   recluster-cache entries intersecting the footprint are dropped,
//!   everything else stays resident.

use std::fmt;

use cod_graph::{AttrId, NodeId};

use crate::error::{CodError, CodResult};

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

/// The kind of a [`Mutation`], for telemetry labels and summaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// An undirected edge was inserted.
    InsertEdge,
    /// An undirected edge was removed.
    RemoveEdge,
    /// A node's attribute set was replaced.
    SetAttrs,
}

impl MutationKind {
    /// The stable label used in Prometheus output and CLI summaries.
    pub fn label(self) -> &'static str {
        match self {
            MutationKind::InsertEdge => "insert",
            MutationKind::RemoveEdge => "remove",
            MutationKind::SetAttrs => "set_attrs",
        }
    }
}

/// One replayable event applied to a dynamic graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the undirected edge `{u, v}`.
    InsertEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Remove the undirected edge `{u, v}`.
    RemoveEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Replace `node`'s attribute set with `attrs`.
    SetAttrs {
        /// The node whose attributes change.
        node: NodeId,
        /// The new attribute set (order preserved as given).
        attrs: Vec<AttrId>,
    },
}

impl Mutation {
    /// This event's [`MutationKind`].
    pub fn kind(&self) -> MutationKind {
        match self {
            Mutation::InsertEdge { .. } => MutationKind::InsertEdge,
            Mutation::RemoveEdge { .. } => MutationKind::RemoveEdge,
            Mutation::SetAttrs { .. } => MutationKind::SetAttrs,
        }
    }
}

/// One line of the text form [`parse_text`] reads: `add u v`, `del u v`
/// or `attrs v a1,a2` (`attrs v` for an empty set).
impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::InsertEdge { u, v } => write!(f, "add {u} {v}"),
            Mutation::RemoveEdge { u, v } => write!(f, "del {u} {v}"),
            Mutation::SetAttrs { node, attrs } => {
                write!(f, "attrs {node}")?;
                for (i, a) in attrs.iter().enumerate() {
                    write!(f, "{}{a}", if i == 0 { " " } else { "," })?;
                }
                Ok(())
            }
        }
    }
}

/// Appends the binary encoding of one event, the payload of a CODW
/// write-ahead-log record. Integers are little-endian:
///
/// ```text
/// tag u8
/// tag 0 (insert) / 1 (remove): u u32, v u32
/// tag 2 (set_attrs):           node u32, len u32, attrs u32 × len
/// ```
pub(crate) fn encode_event(m: &Mutation, out: &mut Vec<u8>) {
    match m {
        Mutation::InsertEdge { u, v } => {
            out.push(0);
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        Mutation::RemoveEdge { u, v } => {
            out.push(1);
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        Mutation::SetAttrs { node, attrs } => {
            out.push(2);
            out.extend_from_slice(&node.to_le_bytes());
            out.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
            for a in attrs {
                out.extend_from_slice(&a.to_le_bytes());
            }
        }
    }
}

/// Decodes one event from `payload` starting at `*pos`, advancing `pos`
/// past it. Every malformation maps to [`CodError::IndexCorrupt`]; the
/// bytes are never trusted blindly.
pub(crate) fn decode_event(payload: &[u8], pos: &mut usize) -> CodResult<Mutation> {
    let take = |pos: &mut usize, n: usize, what: &str| -> CodResult<&[u8]> {
        if *pos + n > payload.len() {
            return Err(CodError::IndexCorrupt(format!(
                "truncated while reading {what}: need {n} bytes, {} remain",
                payload.len() - *pos
            )));
        }
        let s = &payload[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let read_u32 = |pos: &mut usize, what: &str| -> CodResult<u32> {
        let s = take(pos, 4, what)?;
        Ok(u32::from_le_bytes(s.try_into().unwrap_or([0; 4])))
    };
    let tag = take(pos, 1, "event tag")?[0];
    match tag {
        0 | 1 => {
            let u = read_u32(pos, "edge endpoint")?;
            let v = read_u32(pos, "edge endpoint")?;
            Ok(if tag == 0 {
                Mutation::InsertEdge { u, v }
            } else {
                Mutation::RemoveEdge { u, v }
            })
        }
        2 => {
            let node = read_u32(pos, "attr node")?;
            let alen = read_u32(pos, "attr count")? as usize;
            if alen
                .checked_mul(4)
                .map(|bytes| *pos + bytes > payload.len())
                .unwrap_or(true)
            {
                return Err(CodError::IndexCorrupt(format!(
                    "event declares {alen} attributes but they overrun the payload"
                )));
            }
            let mut attrs = Vec::with_capacity(alen);
            for _ in 0..alen {
                attrs.push(read_u32(pos, "attr id")?);
            }
            Ok(Mutation::SetAttrs { node, attrs })
        }
        other => Err(CodError::IndexCorrupt(format!(
            "event has unknown tag {other}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Footprints
// ---------------------------------------------------------------------------

/// The region of the cached state a mutation can influence.
///
/// Invalidation consults the footprint instead of dropping everything:
///
/// * a **topology** footprint (any edge event) invalidates artifacts that
///   depend on the adjacency structure — every recluster-cache entry, the
///   unrestricted RR pools, and restricted pools whose universe contains a
///   touched node;
/// * an **attribute** footprint (a `set_attrs` event) invalidates only the
///   recluster-cache entries and RR pools keyed by one of the touched
///   attributes — pools for disjoint attributes stay resident.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    nodes: Vec<NodeId>,
    attrs: Vec<AttrId>,
    topology: bool,
}

impl Footprint {
    /// An empty footprint (invalidates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no state can be affected.
    pub fn is_empty(&self) -> bool {
        !self.topology && self.nodes.is_empty() && self.attrs.is_empty()
    }

    /// Whether the adjacency structure changed.
    pub fn touches_topology(&self) -> bool {
        self.topology
    }

    /// The touched nodes, sorted and deduplicated.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The touched attributes, sorted and deduplicated.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Whether `v` is one of the touched nodes.
    pub fn touches_node(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Whether `a` is one of the touched attributes.
    pub fn touches_attr(&self, a: AttrId) -> bool {
        self.attrs.binary_search(&a).is_ok()
    }

    /// Records a topology change touching `u` and `v`.
    pub fn add_edge_event(&mut self, u: NodeId, v: NodeId) {
        self.topology = true;
        self.add_node(u);
        self.add_node(v);
    }

    /// Records an attribute change on `node`. `attrs` should be the union
    /// of the node's old and new attribute sets — an influence score
    /// computed under either weighting may change.
    pub fn add_attr_event(&mut self, node: NodeId, attrs: impl IntoIterator<Item = AttrId>) {
        self.add_node(node);
        for a in attrs {
            if let Err(pos) = self.attrs.binary_search(&a) {
                self.attrs.insert(pos, a);
            }
        }
    }

    fn add_node(&mut self, v: NodeId) {
        if let Err(pos) = self.nodes.binary_search(&v) {
            self.nodes.insert(pos, v);
        }
    }
}

// ---------------------------------------------------------------------------
// Text form
// ---------------------------------------------------------------------------

/// Parses the line-oriented text form used by `cod mutate`, one event per
/// line:
///
/// ```text
/// add u v          # insert edge {u, v}
/// del u v          # remove edge {u, v}
/// attrs v a1,a2    # replace v's attributes (omit the list to clear)
/// ```
///
/// Blank lines and lines starting with `#` are skipped; a trailing
/// `# comment` on any line is ignored.
pub fn parse_text(text: &str) -> CodResult<Vec<Mutation>> {
    let bad = |line_no: usize, msg: String| {
        CodError::GraphFormat(format!("mutation log line {line_no}: {msg}"))
    };
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let op = parts.next().unwrap_or("");
        let parse_node = |tok: Option<&str>, what: &str| -> CodResult<NodeId> {
            let tok = tok.ok_or_else(|| bad(line_no, format!("missing {what}")))?;
            tok.parse::<NodeId>()
                .map_err(|_| bad(line_no, format!("bad {what} {tok:?}")))
        };
        match op {
            "add" | "del" => {
                let u = parse_node(parts.next(), "endpoint")?;
                let v = parse_node(parts.next(), "endpoint")?;
                if parts.next().is_some() {
                    return Err(bad(
                        line_no,
                        format!("trailing tokens after '{op} {u} {v}'"),
                    ));
                }
                events.push(if op == "add" {
                    Mutation::InsertEdge { u, v }
                } else {
                    Mutation::RemoveEdge { u, v }
                });
            }
            "attrs" => {
                let node = parse_node(parts.next(), "node")?;
                let attrs =
                    match parts.next() {
                        None => Vec::new(),
                        Some(list) => {
                            let mut attrs = Vec::new();
                            for tok in list.split(',').filter(|t| !t.is_empty()) {
                                attrs.push(tok.parse::<AttrId>().map_err(|_| {
                                    bad(line_no, format!("bad attribute id {tok:?}"))
                                })?);
                            }
                            attrs
                        }
                    };
                if parts.next().is_some() {
                    return Err(bad(
                        line_no,
                        "attribute list must be one comma-separated token".into(),
                    ));
                }
                events.push(Mutation::SetAttrs { node, attrs });
            }
            other => {
                return Err(bad(
                    line_no,
                    format!("unknown operation {other:?} (expected add, del or attrs)"),
                ));
            }
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Mutation> {
        vec![
            Mutation::InsertEdge { u: 3, v: 9 },
            Mutation::RemoveEdge { u: 0, v: 4 },
            Mutation::SetAttrs {
                node: 7,
                attrs: vec![2, 5, 5],
            },
            Mutation::SetAttrs {
                node: 1,
                attrs: vec![],
            },
        ]
    }

    #[test]
    fn text_round_trip_preserves_events() {
        let events = sample_events();
        let text: String = events.iter().map(|m| format!("{m}\n")).collect();
        assert_eq!(text, "add 3 9\ndel 0 4\nattrs 7 2,5,5\nattrs 1\n");
        assert_eq!(parse_text(&text).unwrap(), events);
    }

    #[test]
    fn text_parser_skips_comments_and_reports_line_numbers() {
        let events = parse_text(
            "# header comment\n\nadd 1 2   # trailing comment\n  del 2 3\nattrs 4 0,1\n",
        )
        .unwrap();
        assert_eq!(events.len(), 3);
        let err = parse_text("add 1 2\nfrobnicate 3\n").unwrap_err();
        assert!(matches!(err, CodError::GraphFormat(m) if m.contains("line 2")));
        let err = parse_text("add 1\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn footprint_tracks_nodes_attrs_and_topology() {
        let mut fp = Footprint::new();
        assert!(fp.is_empty());
        fp.add_edge_event(4, 2);
        fp.add_edge_event(2, 9);
        assert!(fp.touches_topology());
        assert_eq!(fp.nodes(), &[2, 4, 9]);
        assert!(fp.touches_node(4) && !fp.touches_node(3));

        let mut attrs = Footprint::new();
        attrs.add_attr_event(7, [3, 1, 3]);
        assert!(!attrs.touches_topology());
        assert_eq!(attrs.attrs(), &[1, 3]);
        assert!(attrs.touches_attr(1) && !attrs.touches_attr(2));
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(MutationKind::InsertEdge.label(), "insert");
        assert_eq!(MutationKind::RemoveEdge.label(), "remove");
        assert_eq!(MutationKind::SetAttrs.label(), "set_attrs");
        assert_eq!(
            Mutation::SetAttrs {
                node: 0,
                attrs: vec![]
            }
            .kind(),
            MutationKind::SetAttrs
        );
    }
}
