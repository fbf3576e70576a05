//! `cod` — command-line characteristic community discovery.
//!
//! Operates on plain-text edge-list + attribute-list files (see
//! `cod_graph::io` for the formats) or on the built-in dataset presets.
//!
//! ```text
//! cod stats     --edges g.txt [--attrs a.txt] | --preset cora
//! cod query     (graph opts) --node 17 [--attr DB] [--k 5] [--theta 10] [--method codl]
//!               [--index idx.codx [--strict-index]] [--budget N]
//! cod query     (graph opts) --queries FILE    # batch: one "node[,attr]" per line
//! cod index     (graph opts) --index idx.codx   # prebuild the CODX v3 artifacts
//! cod serve     (graph opts | --index idx.codx) [--addr 127.0.0.1:7700]
//! cod hierarchy (graph opts) --node 17 [--levels 12]
//! cod baseline  (graph opts) --node 17 --attr DB --method acq|atc|cac
//! cod generate  --preset cora --out-edges g.txt --out-attrs a.txt
//! ```
//!
//! Every failure mode (missing file, malformed input, invalid query
//! parameters, corrupt index) exits non-zero with a one-line diagnostic on
//! stderr — never a panic backtrace.
//!
//! Run `cod help` for the full option list.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use pcod::cod::chain::Chain;
use pcod::cod::compressed::{compressed_cod, total_theta, EvalOptions, Samples};
use pcod::cod::recluster::build_hierarchy;
use pcod::cod::{save_artifacts, MappedArtifacts};
use pcod::graph::io;
use pcod::graph::measures;
use pcod::hierarchy::Hierarchy;
use pcod::prelude::*;
use rand::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "stats" => cmd_stats(&opts),
        "index" => cmd_index(&opts),
        "query" => cmd_query(&opts),
        "hierarchy" => cmd_hierarchy(&opts),
        "baseline" => cmd_baseline(&opts),
        "im" => cmd_im(&opts),
        "serve" => cmd_serve(&opts),
        "mutate" => cmd_mutate(&opts),
        "recover" => cmd_recover(&opts),
        "generate" => cmd_generate(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cod — characteristic community discovery (ICDE 2024)

USAGE:
  cod <command> [options]

COMMANDS:
  stats      print graph statistics
  index      build the hierarchy + HIMOR index and persist them, with the
             graph, to --index as one CODX v3 artifact file
  query      find the characteristic community of a node
  hierarchy  print a node's hierarchical communities and influence ranks
  baseline   run a community-search baseline (acq / atc / cac)
  im         greedy influence-maximization seeds (optionally inside the
             characteristic community of --node)
  serve      HTTP serving tier: /query, /query_batch, /metrics, /healthz,
             /readyz on --addr; SIGTERM/SIGINT drains and exits cleanly
  mutate     replay a mutation log against the incremental pipeline,
             printing a per-event repair/rebuild summary; with --wal DIR
             every event is WAL-logged and checkpointed (crash-safe)
  recover    recover a --wal DIR (replay the WAL over the last checkpoint)
             and print what recovery observed; --index FILE additionally
             writes the recovered artifacts as a standalone CODX v3 file
  generate   write a dataset preset to edge/attribute files
  help       show this text

GRAPH SOURCE (choose one):
  --edges FILE [--attrs FILE]   load from plain-text files
  --preset NAME                 built-in preset (cora, citeseer, pubmed,
                                retweet, amazon, dblp, livejournal)
  query --method codl and serve also accept --index FILE alone: the graph
  stored in the artifact file is served

OPTIONS:
  --node N        query node id
  --queries FILE  query: batch mode. One query per line, \"node\" or
                  \"node,attr\" (attr = name or numeric id; default --attr,
                  then the node's first attribute). Blank lines and lines
                  starting with # are skipped. All queries share one engine,
                  so repeat-attribute queries reuse cached reclusterings;
                  answers are identical to running each line separately
                  with the same --seed
  --attr NAME     query attribute (name or numeric id; default: the node's
                  first attribute)
  --k N           required influence rank (default 5)
  --theta N       RR graphs per node (default 10)
  --seed N        RNG seed (default 42)
  --method M      query: codu|codr|codl-|codl (default codl)
                  baseline: acq|atc|cac
  --levels N      hierarchy: number of levels to print (default 15)
  --index FILE    a CODX v3 artifact file (graph, hierarchy and HIMOR
                  index), served from a memory mapping (zero-copy, each
                  section CRC-verified on first use). query (codl): loaded
                  when usable; a missing, corrupt, older-version or
                  other-graph file is rebuilt and resaved with a warning on
                  stderr (with a graph source). serve: an unusable file is
                  a fatal error. Without a graph source, the graph stored
                  in the file is served
  --strict-index  query: treat an unusable --index file as a fatal error
                  instead of rebuilding
  --budget N      cap total RR-graph samples per query; truncated answers
                  are flagged best-effort
  --deadline-ms N wall-clock deadline per query. A query that overruns it
                  degrades down the method ladder (codl -> codl- -> codu)
                  and the answer is tagged [degraded]; if no rung answers
                  in time the query errors with \"deadline exceeded\"
  --max-inflight N admission-control cap on concurrent batch calls; excess
                  calls are shed with a retriable \"engine overloaded\"
                  error instead of queueing
  --threads T     RR-sampling / index-build threads: a number (default 1)
                  or auto (thread count from RAYON_NUM_THREADS /
                  COD_THREADS / the machine). Sampling is seeded per sample
                  index: results depend only on --seed, never on the
                  thread count
  --trace         query: print a per-query phase/counter trace line after
                  each answer (phase timings plus RR-graph, HFS, and top-k
                  work counts). Tracing never changes answers or RNG draws
  --pool          query/serve: serve compressed evaluations from a shared
                  cross-query RR-pool cache (deterministic key-derived
                  sampling with incremental top-ups and LRU eviction)
  --metrics-out F query: after all queries finish, write engine metrics in
                  Prometheus text format to F (counters, phase seconds,
                  latency histogram, cache gauges)
  --out-edges F   generate: output edge-list path
  --out-attrs F   generate: output attribute-list path
  --log FILE      mutate: mutation log to replay, one event per line:
                  \"add u v\", \"del u v\", or \"attrs v a1,a2\" (blank lines
                  and # comments are skipped). Each applied event is
                  flushed immediately and the line reports whether the
                  hierarchy was repaired in place, rebuilt, or merely
                  refreshed. mutate honors --k, --theta, --seed, and
                  --threads (replays are bit-identical at every thread
                  count)

DURABILITY OPTIONS (mutate / recover / serve):
  --wal DIR       durable state directory: an fsync'd write-ahead log of
                  every mutation plus periodic checkpoint snapshots and a
                  crash-safe MANIFEST. mutate creates or recovers it;
                  recover replays it; serve recovers it on startup
                  (/readyz answers 503 RECOVERING until replay completes)
  --fsync P       WAL fsync policy: always (fsync every record), os (leave
                  it to the page cache), or group[:N:MS] (group commit:
                  fsync after N records or MS milliseconds, default 32:10)
  --checkpoint-events N     events between checkpoint snapshots (4096)
  --checkpoint-wal-bytes N  WAL bytes that force a checkpoint (16 MiB)

SERVE OPTIONS:
  --addr A:P      bind address (default 127.0.0.1:7700; port 0 = ephemeral)
  --workers N     HTTP worker threads (default 2)
  --accept-queue N connections queued ahead of the workers; beyond it new
                  connections are shed at the socket with 503 + Retry-After
                  (default 16)
  --drain-ms N    graceful-shutdown drain deadline: in-flight requests get
                  this long to finish before the engine kill switch degrades
                  them to best-effort answers (default 5000)
  --max-request-bytes N  request body cap, 413 beyond it (default 1048576)
  serve also honors --deadline-ms (default per-request deadline when the
  request carries none), --max-inflight, --k, --theta, --budget, --threads,
  --seed, and --metrics-out (written after drain completes)";

#[derive(Default)]
struct Opts {
    edges: Option<PathBuf>,
    attrs: Option<PathBuf>,
    preset: Option<String>,
    node: Option<NodeId>,
    queries: Option<PathBuf>,
    attr: Option<String>,
    k: usize,
    theta: usize,
    seed: u64,
    method: Option<String>,
    levels: usize,
    index: Option<PathBuf>,
    strict_index: bool,
    budget: Option<usize>,
    deadline_ms: Option<u64>,
    max_inflight: Option<usize>,
    threads: Option<Parallelism>,
    trace: bool,
    pool: bool,
    metrics_out: Option<PathBuf>,
    log: Option<PathBuf>,
    out_edges: Option<PathBuf>,
    out_attrs: Option<PathBuf>,
    addr: Option<String>,
    workers: Option<usize>,
    accept_queue: Option<usize>,
    drain_ms: Option<u64>,
    max_request_bytes: Option<usize>,
    wal: Option<PathBuf>,
    fsync: Option<String>,
    checkpoint_events: Option<u64>,
    checkpoint_wal_bytes: Option<u64>,
}

fn parse_threads(raw: &str) -> Result<Parallelism, String> {
    match raw {
        "auto" => Ok(Parallelism::Auto),
        n => n
            .parse::<usize>()
            .map(Parallelism::Threads)
            .map_err(|_| "--threads wants auto or a number".to_string()),
    }
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Opts {
            k: 5,
            theta: 10,
            seed: 42,
            levels: 15,
            ..Opts::default()
        };
        let mut i = 0;
        let value = |args: &[String], i: usize| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        while i < args.len() {
            // Boolean flags consume one slot; valued options consume two.
            if args[i] == "--strict-index" {
                o.strict_index = true;
                i += 1;
                continue;
            }
            if args[i] == "--trace" {
                o.trace = true;
                i += 1;
                continue;
            }
            if args[i] == "--pool" {
                o.pool = true;
                i += 1;
                continue;
            }
            match args[i].as_str() {
                "--edges" => o.edges = Some(PathBuf::from(value(args, i)?)),
                "--attrs" => o.attrs = Some(PathBuf::from(value(args, i)?)),
                "--preset" => o.preset = Some(value(args, i)?),
                "--node" => {
                    o.node = Some(value(args, i)?.parse().map_err(|_| "--node wants an id")?)
                }
                "--queries" => o.queries = Some(PathBuf::from(value(args, i)?)),
                "--attr" => o.attr = Some(value(args, i)?),
                "--k" => o.k = value(args, i)?.parse().map_err(|_| "--k wants a number")?,
                "--theta" => {
                    o.theta = value(args, i)?
                        .parse()
                        .map_err(|_| "--theta wants a number")?
                }
                "--seed" => {
                    o.seed = value(args, i)?
                        .parse()
                        .map_err(|_| "--seed wants a number")?
                }
                "--method" => o.method = Some(value(args, i)?),
                "--levels" => {
                    o.levels = value(args, i)?
                        .parse()
                        .map_err(|_| "--levels wants a number")?
                }
                "--index" => o.index = Some(PathBuf::from(value(args, i)?)),
                "--budget" => {
                    o.budget = Some(
                        value(args, i)?
                            .parse()
                            .map_err(|_| "--budget wants a number")?,
                    )
                }
                "--deadline-ms" => {
                    o.deadline_ms = Some(
                        value(args, i)?
                            .parse()
                            .map_err(|_| "--deadline-ms wants a number")?,
                    )
                }
                "--max-inflight" => {
                    o.max_inflight = Some(
                        value(args, i)?
                            .parse()
                            .map_err(|_| "--max-inflight wants a number")?,
                    )
                }
                "--threads" => o.threads = Some(parse_threads(&value(args, i)?)?),
                "--metrics-out" => o.metrics_out = Some(PathBuf::from(value(args, i)?)),
                "--addr" => o.addr = Some(value(args, i)?),
                "--workers" => {
                    o.workers = Some(
                        value(args, i)?
                            .parse()
                            .map_err(|_| "--workers wants a number")?,
                    )
                }
                "--accept-queue" => {
                    o.accept_queue = Some(
                        value(args, i)?
                            .parse()
                            .map_err(|_| "--accept-queue wants a number")?,
                    )
                }
                "--drain-ms" => {
                    o.drain_ms = Some(
                        value(args, i)?
                            .parse()
                            .map_err(|_| "--drain-ms wants a number")?,
                    )
                }
                "--max-request-bytes" => {
                    o.max_request_bytes = Some(
                        value(args, i)?
                            .parse()
                            .map_err(|_| "--max-request-bytes wants a number")?,
                    )
                }
                "--log" => o.log = Some(PathBuf::from(value(args, i)?)),
                "--wal" => o.wal = Some(PathBuf::from(value(args, i)?)),
                "--fsync" => o.fsync = Some(value(args, i)?),
                "--checkpoint-events" => {
                    o.checkpoint_events = Some(
                        value(args, i)?
                            .parse()
                            .map_err(|_| "--checkpoint-events wants a number")?,
                    )
                }
                "--checkpoint-wal-bytes" => {
                    o.checkpoint_wal_bytes = Some(
                        value(args, i)?
                            .parse()
                            .map_err(|_| "--checkpoint-wal-bytes wants a number")?,
                    )
                }
                "--out-edges" => o.out_edges = Some(PathBuf::from(value(args, i)?)),
                "--out-attrs" => o.out_attrs = Some(PathBuf::from(value(args, i)?)),
                other => return Err(format!("unknown option {other:?}")),
            }
            i += 2;
        }
        Ok(o)
    }

    fn has_graph_source(&self) -> bool {
        self.edges.is_some() || self.preset.is_some()
    }

    fn load_graph(&self) -> Result<AttributedGraph, String> {
        match (&self.edges, &self.preset) {
            (Some(edges), None) => io::load_attributed(edges, self.attrs.as_deref())
                .map_err(|e| format!("loading graph: {e}")),
            (None, Some(name)) => pcod::datasets::by_name(name, self.seed)
                .map(|d| d.graph)
                .ok_or_else(|| format!("unknown preset {name:?}")),
            (Some(_), Some(_)) => Err("--edges and --preset are mutually exclusive".into()),
            (None, None) => Err("need --edges FILE or --preset NAME".into()),
        }
    }

    fn resolve_attr(&self, g: &AttributedGraph, q: NodeId) -> Result<AttrId, String> {
        match &self.attr {
            Some(name) => {
                if let Some(id) = g.interner().get(name) {
                    return Ok(id);
                }
                name.parse()
                    .map_err(|_| format!("unknown attribute {name:?}"))
            }
            None => g
                .node_attrs(q)
                .first()
                .copied()
                .ok_or_else(|| format!("node {q} has no attributes; pass --attr")),
        }
    }

    fn durability_config(&self) -> Result<pcod::cod::DurabilityConfig, String> {
        let mut dcfg = pcod::cod::DurabilityConfig::default();
        if let Some(spec) = &self.fsync {
            dcfg.fsync = pcod::cod::FsyncPolicy::parse(spec)?;
        }
        if let Some(n) = self.checkpoint_events {
            dcfg.checkpoint_every_events = n.max(1);
        }
        if let Some(n) = self.checkpoint_wal_bytes {
            dcfg.checkpoint_wal_bytes = n.max(1);
        }
        Ok(dcfg)
    }

    fn cod_config(&self) -> CodConfig {
        CodConfig {
            k: self.k,
            theta: self.theta,
            budget: self.budget,
            parallelism: self.threads.unwrap_or_default(),
            trace: self.trace,
            pool: self.pool,
            limits: QueryLimits {
                deadline: self.deadline_ms.map(std::time::Duration::from_millis),
                ..QueryLimits::default()
            },
            max_inflight: self.max_inflight,
            ..CodConfig::default()
        }
    }
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let g = opts.load_graph()?;
    let csr = g.csr();
    let (ncomp, _) = pcod::graph::components::connected_components(csr);
    let max_deg = (0..g.num_nodes() as NodeId)
        .map(|v| g.degree(v))
        .max()
        .unwrap_or(0);
    println!("nodes:       {}", g.num_nodes());
    println!("edges:       {}", g.num_edges());
    println!("attributes:  {}", g.num_attrs());
    println!("components:  {ncomp}");
    println!("max degree:  {max_deg}");
    println!(
        "avg degree:  {:.2}",
        2.0 * g.num_edges() as f64 / g.num_nodes().max(1) as f64
    );
    let ds = pcod::graph::stats::degree_stats(csr);
    println!("median deg:  {}", ds.median);
    println!("pendants:    {:.1}%", ds.pendant_fraction * 100.0);
    println!(
        "clustering:  {:.4}",
        pcod::graph::stats::global_clustering_coefficient(csr)
    );
    println!(
        "assortativity: {:.4}",
        pcod::graph::stats::degree_assortativity(csr)
    );
    println!(
        "pseudo-diameter: {}",
        pcod::graph::stats::pseudo_diameter(csr)
    );
    let dendro = build_hierarchy(csr, Linkage::Average);
    println!("hierarchy:   avg |H(q)| = {:.1}", dendro.avg_chain_len());
    Ok(())
}

/// An `--index FILE` opened for reading: only the header and section
/// directory are parsed up front; each section is CRC-verified on first
/// use. A file that cannot be opened keeps its error, so callers decide
/// whether that is fatal.
struct IndexFile<'a> {
    path: &'a Path,
    arts: Result<MappedArtifacts, String>,
}

impl<'a> IndexFile<'a> {
    fn open(path: &'a Path) -> Self {
        let arts = MappedArtifacts::open(path).map_err(|e| e.to_string());
        IndexFile { path, arts }
    }

    /// The file's hierarchy and HIMOR index, checked against the graph
    /// `g` they are to serve.
    fn artifacts_for(
        &self,
        g: &AttributedGraph,
    ) -> Result<(Arc<Hierarchy>, Arc<HimorIndex>), String> {
        let arts = self.arts.as_ref().map_err(String::clone)?;
        if arts.num_nodes() != g.num_nodes() {
            return Err(format!(
                "index covers {} nodes but the graph has {}",
                arts.num_nodes(),
                g.num_nodes()
            ));
        }
        let text = |e: CodError| e.to_string();
        Ok((arts.hierarchy().map_err(text)?, arts.himor().map_err(text)?))
    }

    /// A one-line error naming the file.
    fn error(&self, why: &str) -> String {
        format!("index {}: {why}", self.path.display())
    }
}

/// The graph `cod query` and `cod serve` answer on: the graph source's,
/// or — with `--index` and no graph source — the graph stored in the
/// artifact file (a view of the mapping, not a copy).
fn load_served_graph(
    opts: &Opts,
    index: Option<&IndexFile<'_>>,
) -> Result<Arc<AttributedGraph>, String> {
    match index {
        Some(ix) if !opts.has_graph_source() => {
            let arts = ix.arts.as_ref().map_err(|e| ix.error(e))?;
            arts.graph().map_err(|e| ix.error(&e.to_string()))
        }
        _ => opts.load_graph().map(Arc::new),
    }
}

/// A CODL engine with its HIMOR index ready. With a usable `--index` file
/// the engine adopts the file's hierarchy and index; otherwise both are
/// built from one seed drawn from `rng` (the draw the first CODL query
/// would make). An unusable file — missing, corrupt, a retired CODX
/// version, another graph — is fatal under `--strict-index` or when the
/// file is also the graph source; otherwise the artifacts are rebuilt and
/// saved over it as CODX v3, with a warning on stderr.
fn codl_engine<R: Rng>(
    g: Arc<AttributedGraph>,
    cfg: CodConfig,
    opts: &Opts,
    index: Option<&IndexFile<'_>>,
    rng: &mut R,
) -> Result<CodEngine, String> {
    if let Some(ix) = index {
        match ix.artifacts_for(&g) {
            Ok((base, himor)) => {
                eprintln!("loaded HIMOR index from {}", ix.path.display());
                return Ok(CodEngine::from_parts(g, cfg, base, himor));
            }
            Err(why) if opts.strict_index || !opts.has_graph_source() => return Err(ix.error(&why)),
            Err(why) => eprintln!(
                "warning: index {} unusable ({why}); rebuilding",
                ix.path.display()
            ),
        }
    }
    let engine = CodEngine::new(Arc::unwrap_or_clone(g), cfg);
    let himor = engine.ensure_himor(rng).map_err(|e| e.to_string())?;
    if let Some(ix) = index {
        let base = engine.base_hierarchy();
        match save_artifacts(ix.path, engine.graph(), &base.dendro, &himor) {
            Ok(()) => eprintln!("saved rebuilt index to {}", ix.path.display()),
            Err(e) => eprintln!("warning: could not save rebuilt index: {e}"),
        }
    }
    Ok(engine)
}

/// `cod index`: build the hierarchy + HIMOR index for a graph and persist
/// them, with the graph, to `--index` as one CODX v3 artifact file.
fn cmd_index(opts: &Opts) -> Result<(), String> {
    let path = opts
        .index
        .as_ref()
        .ok_or("index needs --index FILE (the output path)")?;
    let engine = CodEngine::new(opts.load_graph()?, opts.cod_config());
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let index = engine.ensure_himor(&mut rng).map_err(|e| e.to_string())?;
    let base = engine.base_hierarchy();
    save_artifacts(path, engine.graph(), &base.dendro, &index).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "saved CODX v{} index to {} ({bytes} bytes, {} nodes)",
        pcod::cod::CODX_V3,
        path.display(),
        engine.graph().num_nodes()
    );
    Ok(())
}

/// Node-range check shared by the commands that index per-node data (the
/// engine validates too, but `resolve_attr` reads `q`'s attribute list
/// before any engine call).
fn check_node(g: &AttributedGraph, q: NodeId) -> Result<(), String> {
    if (q as usize) < g.num_nodes() {
        Ok(())
    } else {
        Err(format!(
            "node {q} out of range (graph has {} nodes)",
            g.num_nodes()
        ))
    }
}

fn cmd_query(opts: &Opts) -> Result<(), String> {
    let cfg = opts.cod_config();
    let method = opts.method.as_deref().unwrap_or("codl");
    if opts.index.is_some() && method != "codl" {
        return Err(format!(
            "--index only applies to --method codl, not {method:?}"
        ));
    }
    let index = opts.index.as_deref().map(IndexFile::open);
    let g = load_served_graph(opts, index.as_ref())?;
    if let Some(path) = &opts.queries {
        if opts.node.is_some() {
            return Err("--node and --queries are mutually exclusive".into());
        }
        return cmd_query_batch(opts, g, index.as_ref(), cfg, method, path);
    }
    let q = opts.node.ok_or("query needs --node or --queries")?;
    check_node(&g, q)?;
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let attr = opts.resolve_attr(&g, q);
    let method = parse_method(method)?;
    let query = match method {
        Method::Codu => Query::codu(q),
        _ => Query::new(q, attr?, method),
    };
    // Keep the engine alive past the answer so --metrics-out can read its
    // registry after the query completes.
    let engine = match method {
        Method::Codl => codl_engine(g, cfg, opts, index.as_ref(), &mut rng)?,
        _ => CodEngine::new(Arc::unwrap_or_clone(g), cfg),
    };
    let g = engine.graph();
    let answer = engine.query(query, &mut rng);
    // A failed query must still flush --metrics-out before the error
    // propagates: the registry records the failure (cod_errors_total), and
    // metrics matter most exactly when something went wrong.
    let outcome = match answer {
        Err(e) => Err(e.to_string()),
        Ok(None) => {
            println!("no community where node {q} is top-{}", cfg.k);
            Ok(())
        }
        Ok(Some(ans)) => {
            println!(
                "characteristic community of node {q}: {} members, rank {} (via {:?})",
                ans.size(),
                ans.rank,
                ans.source
            );
            if let Some(rung) = ans.degraded {
                println!(
                    "note: a query limit fired; the answer was served by the \
                     {rung:?} rung of the degradation ladder (best-effort)"
                );
            } else if ans.uncertain {
                println!(
                    "note: best-effort answer: the top-k verdict is within sampling noise or \
                     a sample budget truncated the evaluation (raise --theta, or raise or drop \
                     --budget)"
                );
            }
            println!(
                "topology density {:.4}, conductance {:.4}",
                measures::topology_density(g.csr(), &ans.members),
                measures::conductance(g.csr(), &ans.members),
            );
            let shown = ans.members.len().min(40);
            println!("members[..{shown}]: {:?}", &ans.members[..shown]);
            if let Some(trace) = &ans.trace {
                println!("{}", trace.render_line());
            }
            Ok(())
        }
    };
    write_metrics(opts, &engine)?;
    outcome
}

/// Writes the engine's Prometheus-style metrics to `--metrics-out`, when
/// given.
fn write_metrics(opts: &Opts, engine: &CodEngine) -> Result<(), String> {
    let Some(path) = &opts.metrics_out else {
        return Ok(());
    };
    std::fs::write(path, engine.metrics_text())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote metrics to {}", path.display());
    Ok(())
}

fn parse_method(m: &str) -> Result<Method, String> {
    match m {
        "codu" => Ok(Method::Codu),
        "codr" => Ok(Method::Codr),
        "codl-" => Ok(Method::CodlMinus),
        "codl" => Ok(Method::Codl),
        other => Err(format!("unknown method {other:?} (codu|codr|codl-|codl)")),
    }
}

/// Resolves an attribute given by name or numeric id.
fn resolve_attr_name(g: &AttributedGraph, name: &str) -> Result<AttrId, String> {
    if let Some(id) = g.interner().get(name) {
        return Ok(id);
    }
    name.parse()
        .map_err(|_| format!("unknown attribute {name:?}"))
}

/// Parses one non-blank batch line (`node[,attr]`) into a [`Query`].
fn parse_batch_line(
    opts: &Opts,
    g: &AttributedGraph,
    method: Method,
    line: &str,
) -> Result<Query, String> {
    let mut parts = line.splitn(2, ',');
    let node: NodeId = parts
        .next()
        .unwrap_or("")
        .trim()
        .parse()
        .map_err(|_| format!("bad node id in {line:?}"))?;
    check_node(g, node)?;
    // CODU ignores attributes; for the rest, the line's attribute wins,
    // then --attr, then the node's first attribute.
    let attr = if method == Method::Codu {
        None
    } else {
        let named = parts.next().map(str::trim).filter(|s| !s.is_empty());
        let id = match named.or(opts.attr.as_deref()) {
            Some(name) => resolve_attr_name(g, name)?,
            None => g.node_attrs(node).first().copied().ok_or_else(|| {
                format!("node {node} has no attributes; append \",attr\" or pass --attr")
            })?,
        };
        Some(id)
    };
    Ok(Query { node, attr, method })
}

/// Batch query mode: one `node[,attr]` per line, answered through a single
/// shared [`CodEngine`] so repeat-attribute queries reuse cached
/// reclusterings. Malformed lines and per-query failures are reported
/// inline and never stop the rest of the batch — the valid queries still
/// run and `--metrics-out` still flushes — but malformed input fails the
/// exit code once everything has been served.
fn cmd_query_batch(
    opts: &Opts,
    g: Arc<AttributedGraph>,
    index: Option<&IndexFile<'_>>,
    cfg: CodConfig,
    method_name: &str,
    path: &Path,
) -> Result<(), String> {
    let method = parse_method(method_name)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut queries = Vec::new();
    let mut bad_lines = 0usize;
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_batch_line(opts, &g, method, line) {
            Ok(query) => queries.push(query),
            Err(msg) => {
                println!("{}:{}: error: {msg}", path.display(), no + 1);
                bad_lines += 1;
            }
        }
    }
    let malformed = || format!("{}: {bad_lines} malformed line(s)", path.display());
    if queries.is_empty() {
        return Err(if bad_lines == 0 {
            format!("{}: no queries", path.display())
        } else {
            malformed()
        });
    }

    let mut rng = SmallRng::seed_from_u64(opts.seed);
    // One engine serves the whole batch; for CODL, --index load, rebuild
    // and resave apply as for a single query.
    let engine = if method == Method::Codl {
        codl_engine(g, cfg, opts, index, &mut rng)?
    } else {
        CodEngine::new(Arc::unwrap_or_clone(g), cfg)
    };

    // Batch summary tallies: degraded answers are counted separately from
    // clean answers and from errors — a degraded answer is still served.
    let (mut answered, mut degraded, mut none, mut errors) = (0usize, 0usize, 0usize, 0usize);
    for (query, result) in queries.iter().zip(engine.query_batch(&queries, &mut rng)) {
        let q = query.node;
        match result {
            Err(e) => {
                errors += 1;
                println!("node {q}: error: {e}");
            }
            Ok(None) => {
                none += 1;
                println!("node {q}: no community where it is top-{}", cfg.k);
            }
            Ok(Some(ans)) => {
                let cache = match ans.cache {
                    Some(CacheOutcome::Hit) => ", cache hit",
                    Some(CacheOutcome::Miss) => ", cache miss",
                    None => "",
                };
                let flag = match ans.degraded {
                    Some(rung) => {
                        degraded += 1;
                        format!(" [degraded: served by {rung:?}]")
                    }
                    None => {
                        answered += 1;
                        if ans.uncertain {
                            " [best-effort]".to_string()
                        } else {
                            String::new()
                        }
                    }
                };
                println!(
                    "node {q}: {} members, rank {} (via {:?}{cache}){flag}",
                    ans.size(),
                    ans.rank,
                    ans.source,
                );
                if let Some(trace) = &ans.trace {
                    println!("  {}", trace.render_line());
                }
            }
        }
    }
    eprintln!(
        "batch summary: {answered} answered, {degraded} degraded, {none} without community, \
         {errors} errors"
    );
    let stats = engine.cache_stats();
    eprintln!(
        "recluster cache: {} hits / {} misses ({:.0}% hit rate, {} resident)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.len,
    );
    write_metrics(opts, &engine)?;
    if bad_lines > 0 {
        return Err(malformed());
    }
    Ok(())
}

fn cmd_hierarchy(opts: &Opts) -> Result<(), String> {
    let g = opts.load_graph()?;
    let q = opts.node.ok_or("hierarchy needs --node")?;
    check_node(&g, q)?;
    let cfg = opts.cod_config();
    let dendro = build_hierarchy(g.csr(), cfg.linkage);
    let lca = LcaIndex::new(&dendro);
    let chain = DendroChain::new(&dendro, &lca, q).map_err(|e| e.to_string())?;
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let opts_eval = EvalOptions {
        par: cfg.parallelism,
        ..EvalOptions::default()
    };
    let seed = Samples::Seed(rng.next_u64());
    let out = compressed_cod(
        g.csr(),
        cfg.model,
        &chain,
        q,
        cfg.k,
        cfg.theta,
        seed,
        opts_eval,
    )
    .map_err(|e| e.to_string())?;
    println!("node {q}: |H(q)| = {} communities", chain.len());
    println!("level | size     | rank(q) | top-{}?", cfg.k);
    for h in 0..chain.len().min(opts.levels) {
        println!(
            "{h:5} | {:8} | {:7} | {}",
            chain.size(h),
            out.ranks[h],
            if out.ranks[h] <= cfg.k { "yes" } else { "no" }
        );
    }
    if chain.len() > opts.levels {
        println!(
            "... ({} more levels; raise --levels)",
            chain.len() - opts.levels
        );
    }
    Ok(())
}

fn cmd_baseline(opts: &Opts) -> Result<(), String> {
    let g = opts.load_graph()?;
    let q = opts.node.ok_or("baseline needs --node")?;
    check_node(&g, q)?;
    let attr = opts.resolve_attr(&g, q)?;
    let method = opts
        .method
        .as_deref()
        .ok_or("baseline needs --method acq|atc|cac")?;
    let community = match method {
        "acq" => pcod::search::acq_query(&g, q, attr, 2),
        "atc" => pcod::search::atc_query(&g, q, attr, Default::default()),
        "cac" => pcod::search::cac_query(&g, q, attr),
        other => return Err(format!("unknown baseline {other:?}")),
    };
    match community {
        None => println!("{method}: no community for node {q}"),
        Some(c) => {
            println!("{method}: {} members", c.len());
            println!(
                "topology density {:.4}, attribute density {:.4}",
                measures::topology_density(g.csr(), &c),
                measures::attribute_density(&g, &c, attr),
            );
            let shown = c.len().min(40);
            println!("members[..{shown}]: {:?}", &c[..shown]);
        }
    }
    Ok(())
}

fn cmd_im(opts: &Opts) -> Result<(), String> {
    use pcod::influence::RrPool;
    let g = opts.load_graph()?;
    let cfg = opts.cod_config();
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    // Scope: whole graph, or the characteristic community of --node.
    let members: Option<Vec<NodeId>> = match opts.node {
        None => None,
        Some(q) => {
            check_node(&g, q)?;
            let attr = opts.resolve_attr(&g, q)?;
            let engine = CodEngine::new(g.clone(), cfg);
            engine.ensure_himor(&mut rng).map_err(|e| e.to_string())?;
            let query = Query::new(q, attr, Method::Codl);
            match engine.query(query, &mut rng).map_err(|e| e.to_string())? {
                Some(ans) => {
                    println!(
                        "scoping to the characteristic community of node {q} ({} members)",
                        ans.size()
                    );
                    Some(ans.members)
                }
                None => {
                    return Err(format!(
                        "node {q} has no characteristic community at k = {};                          drop --node for whole-graph seeds",
                        cfg.k
                    ))
                }
            }
        }
    };
    let scope = members.as_ref().map_or(g.num_nodes(), Vec::len);
    let theta = total_theta(cfg.theta.max(20), scope).map_err(|e| e.to_string())?;
    let pool = RrPool::sample(
        g.csr(),
        cfg.model,
        theta,
        SeedSequence::new(rng.next_u64()),
        members.as_deref(),
        cfg.parallelism,
    );
    let seeds = pool.greedy_seeds(cfg.k);
    println!("greedy seeds (marginal estimated influence):");
    for (i, (v, gain)) in seeds.iter().enumerate() {
        println!("  {}. node {v:6}  +{gain:.2}", i + 1);
    }
    let total: Vec<NodeId> = seeds.iter().map(|&(v, _)| v).collect();
    println!("joint estimated influence: {:.2}", pool.estimate(&total));
    Ok(())
}

/// `cod serve`: stand up the HTTP serving tier on `--addr` and run until a
/// SIGTERM/SIGINT arrives, then drain gracefully. The bound address is
/// printed on stdout (`serving on http://…`) so scripts can target an
/// ephemeral port; the shutdown report (drain outcome + request counters)
/// goes to stderr, and `--metrics-out` flushes the engine's final metrics
/// after the drain completes.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use std::io::Write as _;

    let serve_cfg = serve_config(opts);

    // Durable serving: recover the --wal directory on a background thread
    // while /readyz answers 503 RECOVERING, then promote the listener to
    // the full server over the recovered artifacts.
    if let Some(dir) = &opts.wal {
        if opts.index.is_some() {
            return Err("--wal serves the recovered state: drop --index".into());
        }
        let cfg = opts.cod_config();
        let dcfg = opts.durability_config()?;
        let dir = dir.clone();
        pcod::serve::signal::install_shutdown_handler();
        let recovering = pcod::serve::serve_recovering(serve_cfg, move || {
            let (mut durable, report) = pcod::cod::DurableCod::open(&dir, cfg, dcfg)?;
            let bytes = durable.snapshot_bytes()?;
            let arts = MappedArtifacts::from_vec(bytes)?;
            let engine = CodEngine::from_mapped(&arts, cfg)?;
            engine.record_recovery(report.replayed, report.wall_time.as_nanos() as u64);
            eprintln!(
                "recovered {} event(s) over checkpoint {} in {:.2?}{}{}",
                report.replayed,
                durable.manifest().snapshot,
                report.wall_time,
                match report.torn_tail {
                    Some(t) => format!(" (torn tail: {} byte(s) truncated)", t.dropped_bytes),
                    None => String::new(),
                },
                if report.swept_temps > 0 {
                    format!(" ({} stale temp file(s) swept)", report.swept_temps)
                } else {
                    String::new()
                },
            );
            Ok(Arc::new(engine))
        })
        .map_err(|e| format!("binding listener: {e}"))?;
        println!("recovering; serving on http://{}", recovering.addr());
        let _ = std::io::stdout().flush();
        eprintln!("endpoints: /query /query_batch /metrics /healthz /readyz (SIGTERM drains)");
        let handle = recovering
            .wait_ready()
            .map_err(|e| format!("recovery failed: {e}"))?;
        return run_until_shutdown(handle, opts);
    }

    // With --index the engine serves the artifact file's hierarchy and
    // index (and its graph, absent a graph source); an unusable file fails
    // startup. Without it, the artifacts build in-process on first use.
    let cfg = opts.cod_config();
    let engine = match opts.index.as_deref().map(IndexFile::open) {
        None => CodEngine::new(opts.load_graph()?, cfg),
        Some(ix) => {
            let g = load_served_graph(opts, Some(&ix))?;
            let (base, himor) = ix.artifacts_for(&g).map_err(|why| ix.error(&why))?;
            if let Ok(arts) = &ix.arts {
                eprintln!(
                    "mapped {} ({} bytes, {} nodes, {})",
                    ix.path.display(),
                    arts.file_bytes(),
                    arts.num_nodes(),
                    if arts.is_mapped() {
                        "zero-copy"
                    } else {
                        "eager-load fallback"
                    }
                );
            }
            CodEngine::from_parts(g, cfg, base, himor)
        }
    };
    // Install the handler before binding so a signal racing startup still
    // lands in the flag the loop below polls.
    pcod::serve::signal::install_shutdown_handler();
    let handle = pcod::serve::serve(Arc::new(engine), serve_cfg)
        .map_err(|e| format!("binding listener: {e}"))?;
    println!("serving on http://{}", handle.addr());
    let _ = std::io::stdout().flush();
    eprintln!("endpoints: /query /query_batch /metrics /healthz /readyz (SIGTERM drains)");
    run_until_shutdown(handle, opts)
}

fn serve_config(opts: &Opts) -> pcod::serve::ServeConfig {
    let serve_cfg = pcod::serve::ServeConfig {
        addr: opts.addr.clone().unwrap_or_else(|| "127.0.0.1:7700".into()),
        workers: opts.workers.unwrap_or(2).max(1),
        accept_queue: opts.accept_queue.unwrap_or(16).max(1),
        drain_deadline: Duration::from_millis(opts.drain_ms.unwrap_or(5_000)),
        seed: opts.seed,
        ..pcod::serve::ServeConfig::default()
    };
    pcod::serve::ServeConfig {
        max_request_bytes: opts
            .max_request_bytes
            .unwrap_or(serve_cfg.max_request_bytes),
        // --deadline-ms doubles as the serve default for requests that do
        // not carry their own deadline (the engine-side limit built by
        // cod_config() applies regardless, so requests can only tighten it).
        default_deadline: opts
            .deadline_ms
            .map(Duration::from_millis)
            .or(serve_cfg.default_deadline),
        ..serve_cfg
    }
}

/// The serve main loop shared by the plain and durable startup paths:
/// wait for the shutdown signal, drain, report, flush metrics.
fn run_until_shutdown(handle: pcod::serve::ServerHandle, opts: &Opts) -> Result<(), String> {
    let engine = handle.engine().clone();
    while !pcod::serve::signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutdown signal received; draining in-flight requests");
    let report = handle.shutdown();
    let stats = &report.http_stats;
    eprintln!(
        "drain {}: {} request(s) served, {} shed at socket, {} shed by engine, \
         {} rejected while draining, {} worker panic(s)",
        if report.drained_in_time {
            "completed in time"
        } else {
            "overran the deadline (stragglers degraded via the kill switch)"
        },
        stats.requests,
        stats.shed_socket,
        stats.shed_engine,
        stats.draining_rejects,
        stats.panics,
    );
    write_metrics(opts, &engine)
}

/// The replay target behind `cod mutate`: the plain in-memory pipeline or
/// the WAL-backed durable wrapper (`--wal DIR`).
enum Replayer {
    Plain(Box<pcod::cod::DynamicCod>),
    Durable(Box<pcod::cod::DurableCod>),
}

impl Replayer {
    fn apply(&mut self, m: &pcod::cod::mutation::Mutation) -> Result<bool, pcod::cod::CodError> {
        match self {
            Replayer::Plain(d) => d.apply(m),
            Replayer::Durable(d) => d.apply(m),
        }
    }

    fn flush(&mut self) -> Result<pcod::cod::MutationFlushReport, pcod::cod::CodError> {
        match self {
            Replayer::Plain(d) => d.flush(),
            Replayer::Durable(d) => d.flush(),
        }
    }

    fn inner(&self) -> &pcod::cod::DynamicCod {
        match self {
            Replayer::Plain(d) => d,
            Replayer::Durable(d) => d.engine(),
        }
    }
}

fn cmd_mutate(opts: &Opts) -> Result<(), String> {
    use pcod::cod::mutation::{Mutation, MutationLog};
    use pcod::cod::{CodError, DurableCod, DynamicCod, FlushOutcome};

    let g = opts.load_graph()?;
    let log_path = opts.log.as_ref().ok_or("mutate needs --log FILE")?;
    let text = std::fs::read_to_string(log_path)
        .map_err(|e| format!("reading {}: {e}", log_path.display()))?;
    let log = MutationLog::parse_text(&text).map_err(|e| e.to_string())?;
    // The replay is a pure function of the log and --seed, bit-identical at
    // every thread count, and single edits repair the hierarchy in place
    // instead of rebuilding it.
    let cfg = opts.cod_config();
    let mut replayer = match &opts.wal {
        None => Replayer::Plain(Box::new(
            DynamicCod::with_seed(&g, cfg, opts.seed).map_err(|e| e.to_string())?,
        )),
        Some(dir) => {
            let dcfg = opts.durability_config()?;
            if DurableCod::exists(dir) {
                let (d, report) = DurableCod::open(dir, cfg, dcfg).map_err(|e| e.to_string())?;
                eprintln!(
                    "recovered {} ({} checkpointed + {} replayed event(s)) in {:.2?}",
                    dir.display(),
                    report.checkpoint_events,
                    report.replayed,
                    report.wall_time
                );
                Replayer::Durable(Box::new(d))
            } else {
                let d =
                    DurableCod::create(dir, &g, cfg, opts.seed, dcfg).map_err(|e| e.to_string())?;
                eprintln!("created durable state in {}", dir.display());
                Replayer::Durable(Box::new(d))
            }
        }
    };
    println!(
        "replaying {} events from {} against {} nodes / {} edges (seed {})",
        log.len(),
        log_path.display(),
        g.num_nodes(),
        g.num_edges(),
        opts.seed
    );
    let started = std::time::Instant::now();
    // On failure, report exactly how far the replay got — which event
    // failed and how many landed — via the typed ReplayHalted error.
    let halt = |applied: usize, failed_event: usize, cause: CodError| {
        CodError::ReplayHalted {
            applied,
            failed_event,
            cause: Box::new(cause),
        }
        .to_string()
    };
    for (i, m) in log.events().iter().enumerate() {
        let label = match m {
            Mutation::InsertEdge { u, v } => format!("add {u} {v}"),
            Mutation::RemoveEdge { u, v } => format!("del {u} {v}"),
            Mutation::SetAttrs { node, attrs } => format!(
                "attrs {node} {}",
                attrs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        };
        let applied = replayer.apply(m).map_err(|e| halt(i, i + 1, e))?;
        if !applied {
            println!(
                "[{:>4}] {label:<24} -> no-op (edge already in that state)",
                i + 1
            );
            continue;
        }
        let report = replayer.flush().map_err(|e| halt(i + 1, i + 1, e))?;
        let outcome = match report.outcome {
            FlushOutcome::Noop => "no-op".to_string(),
            FlushOutcome::Refreshed => "refreshed (hierarchy + index untouched)".to_string(),
            FlushOutcome::Repaired {
                spliced,
                samples_redrawn,
                samples_total,
            } => format!(
                "repaired ({}, {samples_redrawn}/{samples_total} samples redrawn)",
                if spliced { "spliced" } else { "recomputed" }
            ),
            FlushOutcome::Rebuilt => "full rebuild".to_string(),
        };
        println!("[{:>4}] {label:<24} -> {outcome}", i + 1);
    }
    let snap = replayer.inner().metrics_snapshot();
    println!(
        "\nreplayed {} events in {:.2?}: {} repairs, {} full rebuilds, {} pools evicted (scoped)",
        log.len(),
        started.elapsed(),
        snap.repairs,
        snap.full_rebuilds,
        snap.pool_scoped_evictions
    );
    println!(
        "final graph: {} nodes, {} edges",
        replayer.inner().num_nodes(),
        replayer.inner().num_edges()
    );
    if let Replayer::Durable(d) = &mut replayer {
        d.flush_wal().map_err(|e| e.to_string())?;
        println!(
            "durable state: {} event(s) total, {} in the live WAL over {} \
             ({} WAL append(s), {} fsync(s))",
            d.events_total(),
            d.wal_records(),
            d.manifest().snapshot,
            snap.wal_appended_records,
            snap.wal_fsyncs,
        );
    }
    Ok(())
}

fn cmd_recover(opts: &Opts) -> Result<(), String> {
    use pcod::cod::DurableCod;

    let dir = opts.wal.as_ref().ok_or("recover needs --wal DIR")?;
    let cfg = opts.cod_config();
    let dcfg = opts.durability_config()?;
    let (mut durable, report) = DurableCod::open(dir, cfg, dcfg).map_err(|e| e.to_string())?;
    println!(
        "recovered {}: checkpoint {} ({} event(s)) + {} WAL event(s) replayed in {:.2?}",
        dir.display(),
        durable.manifest().snapshot,
        report.checkpoint_events,
        report.replayed,
        report.wall_time
    );
    if let Some(t) = report.torn_tail {
        println!(
            "torn tail truncated: {} byte(s) dropped past offset {}",
            t.dropped_bytes, t.valid_offset
        );
    }
    if report.swept_temps > 0 {
        println!("swept {} stale temp file(s)", report.swept_temps);
    }
    let bytes = durable.snapshot_bytes().map_err(|e| e.to_string())?;
    println!(
        "recovered state: {} nodes, {} edges, {} event(s) total ({} bytes canonical)",
        durable.engine().num_nodes(),
        durable.engine().num_edges(),
        durable.events_total(),
        bytes.len()
    );
    if let Some(path) = &opts.index {
        std::fs::write(path, &bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote recovered artifacts to {}", path.display());
    }
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let name = opts.preset.as_deref().ok_or("generate needs --preset")?;
    let data = pcod::datasets::by_name(name, opts.seed)
        .ok_or_else(|| format!("unknown preset {name:?}"))?;
    let edges_path = opts
        .out_edges
        .as_ref()
        .ok_or("generate needs --out-edges")?;
    let f = std::fs::File::create(edges_path).map_err(|e| e.to_string())?;
    io::write_edge_list(data.graph.csr(), f).map_err(|e| e.to_string())?;
    println!(
        "wrote {} edges to {}",
        data.graph.num_edges(),
        edges_path.display()
    );
    if let Some(attrs_path) = &opts.out_attrs {
        let f = std::fs::File::create(attrs_path).map_err(|e| e.to_string())?;
        io::write_attr_list(&data.graph, f).map_err(|e| e.to_string())?;
        println!("wrote attributes to {}", attrs_path.display());
    }
    Ok(())
}
