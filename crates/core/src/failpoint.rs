//! Deterministic failpoint harness for governance tests.
//!
//! A failpoint is a named checkpoint on the serving path ([`Site`]) that
//! tests can arm with an [`Action`]: panic (exercising panic isolation),
//! delay (widening race windows for the stress tests), or forced
//! cancellation (firing the query's `CancelToken` as if a limit tripped).
//!
//! **Compiled out in release builds**: with `debug_assertions` off,
//! [`hit`] is an empty inline function and [`arm`]/[`disarm_all`] are
//! no-ops, so production binaries carry zero overhead and zero attack
//! surface. In debug builds the disarmed fast path is a single relaxed
//! atomic load.
//!
//! Arming happens through the API ([`arm`]) or the `COD_FAILPOINTS`
//! environment variable, read once per process:
//!
//! ```text
//! COD_FAILPOINTS=all                         # 1ms delay at every site
//! COD_FAILPOINTS=sample_batch=panic          # one site, one action
//! COD_FAILPOINTS=hfs_level=delay:5,merge_wave=cancel
//! ```
//!
//! `all` injects only delays — answers must stay bit-identical, so a full
//! test run under `COD_FAILPOINTS=all` proves every checkpoint is
//! draw-order-neutral. [`disarm_all`] resets to the env baseline, so tests
//! that arm sites programmatically can restore whatever the harness
//! configured. Tests arming failpoints share process-global state and must
//! serialize behind a lock (see `tests/governance.rs`).

use cod_influence::CancelToken;

/// A named checkpoint on the serving path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// Per RR-sample batch inside compressed evaluation and HIMOR's HFS
    /// stage (every `CHECK_EVERY` draws).
    SampleBatch,
    /// Per HFS level while recording one RR graph into the buckets.
    HfsLevel,
    /// Per depth wave of HIMOR's bucket merge stage.
    MergeWave,
    /// Every 256 merges of an attribute-aware linkage (re)clustering.
    LinkageRound,
    /// At the top of each per-query evaluation worker.
    EvalWorker,
    /// Before a recluster-cache or index build closure runs.
    CacheBuild,
    /// Serve tier: after a connection is accepted, before it is handed to
    /// a worker.
    Accept,
    /// Serve tier: before the HTTP request parser runs on a connection.
    Parse,
    /// Serve tier: after routing, immediately before the engine call.
    PreEval,
    /// Serve tier: before the response bytes are written back.
    RespWrite,
    /// Shared RR-pool cache: per sample batch while growing a pooled
    /// generation (every `CHECK_EVERY` draws).
    PoolGrow,
    /// Shared RR-pool cache: per sample batch while folding pooled RR
    /// graphs into a query's HFS buckets.
    PoolFold,
    /// Mutation pipeline: before the localized dendrogram repair of a
    /// flush runs.
    DendroRepair,
    /// Mutation pipeline: per redraw batch while patching the HIMOR index
    /// after a repair (every `CHECK_EVERY` redraws).
    HimorPatch,
    /// Out-of-core artifacts: before a mapped CODX v3 section's lazy CRC
    /// verification runs (first access of that section).
    MmapSection,
    /// Durability: after a WAL record's bytes reach the file, before the
    /// fsync-policy decision (a crash here leaves an un-fsynced tail).
    WalAppend,
    /// Durability: immediately before the WAL `sync_data` call (a crash
    /// here loses the whole unsynced group).
    WalFsync,
    /// Durability: after the checkpoint snapshot + fresh WAL are written,
    /// before the manifest swap begins (a crash here leaves unreferenced
    /// files for GC).
    CheckpointCommit,
    /// Durability: immediately before the manifest's atomic rename (a
    /// crash here must leave the *old* manifest authoritative).
    ManifestSwap,
}

/// Every *engine* site, for tests that iterate the engine query surface
/// (each of these is reachable from a plain `query_batch` workload).
pub const SITES: [Site; 6] = [
    Site::SampleBatch,
    Site::HfsLevel,
    Site::MergeWave,
    Site::LinkageRound,
    Site::EvalWorker,
    Site::CacheBuild,
];

/// The serve-tier sites, reachable only through `cod-serve`'s request
/// path. Kept out of [`SITES`] so engine-only chaos sweeps don't arm
/// checkpoints their workload can never hit.
pub const SERVE_SITES: [Site; 4] = [Site::Accept, Site::Parse, Site::PreEval, Site::RespWrite];

/// The shared RR-pool cache sites, reachable only when `CodConfig::pool`
/// is enabled. Kept out of [`SITES`] for the same reason as the serve
/// tier: the engine chaos sweeps run pool-disabled workloads that could
/// never hit these checkpoints.
pub const POOL_SITES: [Site; 2] = [Site::PoolGrow, Site::PoolFold];

/// The mutation-pipeline sites, reachable only through `DynamicCod`'s
/// flush path (repair + HIMOR patch). Kept out of [`SITES`] so engine
/// chaos sweeps over frozen graphs don't arm unreachable checkpoints.
pub const MUTATION_SITES: [Site; 2] = [Site::DendroRepair, Site::HimorPatch];

/// The out-of-core sites, reachable only through mapped CODX v3 artifacts
/// ([`crate::codx::MappedArtifacts`]). Kept out of [`SITES`] so in-RAM
/// chaos sweeps don't arm checkpoints their workload can never hit.
pub const OOC_SITES: [Site; 1] = [Site::MmapSection];

/// The durability sites, reachable only through the write-ahead log and
/// checkpoint path ([`crate::wal`] / [`crate::recovery`]). Kept out of
/// [`SITES`] so engine chaos sweeps over frozen graphs don't arm
/// checkpoints their workload can never hit.
pub const DURABILITY_SITES: [Site; 4] = [
    Site::WalAppend,
    Site::WalFsync,
    Site::CheckpointCommit,
    Site::ManifestSwap,
];

impl Site {
    // Only the debug-build registry parses `COD_FAILPOINTS`; release
    // builds compile the sites out and never name them.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn parse(name: &str) -> Option<Site> {
        match name {
            "sample_batch" => Some(Site::SampleBatch),
            "hfs_level" => Some(Site::HfsLevel),
            "merge_wave" => Some(Site::MergeWave),
            "linkage_round" => Some(Site::LinkageRound),
            "eval_worker" => Some(Site::EvalWorker),
            "cache_build" => Some(Site::CacheBuild),
            "accept" => Some(Site::Accept),
            "parse" => Some(Site::Parse),
            "pre_eval" => Some(Site::PreEval),
            "resp_write" => Some(Site::RespWrite),
            "pool_grow" => Some(Site::PoolGrow),
            "pool_fold" => Some(Site::PoolFold),
            "dendro_repair" => Some(Site::DendroRepair),
            "himor_patch" => Some(Site::HimorPatch),
            "mmap_section" => Some(Site::MmapSection),
            "wal_append" => Some(Site::WalAppend),
            "wal_fsync" => Some(Site::WalFsync),
            "checkpoint_commit" => Some(Site::CheckpointCommit),
            "manifest_swap" => Some(Site::ManifestSwap),
            _ => None,
        }
    }
}

/// What an armed failpoint does when hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Panic with a recognizable message (tests panic isolation).
    Panic,
    /// Sleep for the given duration (widens race windows).
    Delay(std::time::Duration),
    /// Fire the query's [`CancelToken`], as if a limit tripped here.
    Cancel,
}

#[cfg(debug_assertions)]
mod imp {
    use super::{Action, Site, SITES};
    use cod_influence::CancelToken;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// Fast-path guard: true iff any site is armed.
    static ARMED: AtomicBool = AtomicBool::new(false);
    static REGISTRY: Mutex<Option<HashMap<Site, Action>>> = Mutex::new(None);

    /// The baseline parsed from `COD_FAILPOINTS`, read once per process.
    fn env_baseline() -> &'static HashMap<Site, Action> {
        static BASELINE: OnceLock<HashMap<Site, Action>> = OnceLock::new();
        BASELINE.get_or_init(|| {
            let Ok(spec) = std::env::var("COD_FAILPOINTS") else {
                return HashMap::new();
            };
            parse_spec(&spec)
        })
    }

    fn parse_spec(spec: &str) -> HashMap<Site, Action> {
        let mut map = HashMap::new();
        if spec.trim() == "all" {
            for site in SITES
                .into_iter()
                .chain(super::SERVE_SITES)
                .chain(super::POOL_SITES)
                .chain(super::MUTATION_SITES)
                .chain(super::OOC_SITES)
                .chain(super::DURABILITY_SITES)
            {
                map.insert(site, Action::Delay(std::time::Duration::from_millis(1)));
            }
            return map;
        }
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((site, action)) = part.split_once('=') else {
                eprintln!("warning: COD_FAILPOINTS entry {part:?} lacks '='; ignored");
                continue;
            };
            let Some(site) = Site::parse(site.trim()) else {
                eprintln!("warning: COD_FAILPOINTS names unknown site {site:?}; ignored");
                continue;
            };
            let action = match action.trim() {
                "panic" => Action::Panic,
                "cancel" => Action::Cancel,
                a => {
                    if let Some(ms) = a.strip_prefix("delay:").and_then(|m| m.parse().ok()) {
                        Action::Delay(std::time::Duration::from_millis(ms))
                    } else {
                        eprintln!("warning: COD_FAILPOINTS action {a:?} unknown; ignored");
                        continue;
                    }
                }
            };
            map.insert(site, action);
        }
        map
    }

    fn with_registry<T>(f: impl FnOnce(&mut HashMap<Site, Action>) -> T) -> T {
        let mut guard = match REGISTRY.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let map = guard.get_or_insert_with(|| env_baseline().clone());
        let out = f(map);
        ARMED.store(!map.is_empty(), Ordering::Relaxed);
        out
    }

    pub fn arm(site: Site, action: Action) {
        with_registry(|map| {
            map.insert(site, action);
        });
    }

    pub fn disarm_all() {
        with_registry(|map| {
            *map = env_baseline().clone();
        });
    }

    /// True once the env baseline has been folded into `ARMED`, so the
    /// disarmed steady state is two relaxed loads.
    static ENV_LATCHED: AtomicBool = AtomicBool::new(false);

    #[inline]
    pub fn hit(site: Site, cancel: Option<&CancelToken>) {
        if !ARMED.load(Ordering::Relaxed) {
            if ENV_LATCHED.load(Ordering::Relaxed) {
                return;
            }
            // First hit after startup: latch the env baseline in, so an
            // env-armed process trips without any API call.
            with_registry(|_| {});
            ENV_LATCHED.store(true, Ordering::Relaxed);
            if !ARMED.load(Ordering::Relaxed) {
                return;
            }
        }
        hit_slow(site, cancel);
    }

    #[cold]
    fn hit_slow(site: Site, cancel: Option<&CancelToken>) {
        let action = with_registry(|map| map.get(&site).copied());
        match action {
            None => {}
            Some(Action::Panic) => panic!("failpoint {site:?} armed to panic"),
            Some(Action::Delay(d)) => std::thread::sleep(d),
            Some(Action::Cancel) => {
                if let Some(token) = cancel {
                    token.cancel();
                }
            }
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::{Action, Site};
    use cod_influence::CancelToken;

    pub fn arm(_site: Site, _action: Action) {}
    pub fn disarm_all() {}

    #[inline(always)]
    pub fn hit(_site: Site, _cancel: Option<&CancelToken>) {}
}

/// Arms `site` with `action` for the whole process (debug builds only; a
/// no-op in release).
pub fn arm(site: Site, action: Action) {
    imp::arm(site, action);
}

/// Resets every site to the `COD_FAILPOINTS` environment baseline (debug
/// builds only; a no-op in release).
pub fn disarm_all() {
    imp::disarm_all();
}

/// Checkpoint: does nothing unless `site` is armed. `cancel` is the query's
/// token, handed to [`Action::Cancel`] injections.
#[inline]
pub fn hit(site: Site, cancel: Option<&CancelToken>) {
    imp::hit(site, cancel);
}

/// Whether failpoints are compiled into this build (true in debug builds).
/// Tests use this to skip injection scenarios in release runs.
pub const fn compiled_in() -> bool {
    cfg!(debug_assertions)
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Failpoint state is process-global: serialize these tests. They arm
    /// serve-tier sites only, which nothing in this crate hits, so the
    /// engine unit tests running beside them never meet an armed site.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disarmed_hit_is_a_no_op() {
        let _g = guard();
        disarm_all();
        hit(Site::SampleBatch, None); // must not panic or hang
    }

    #[test]
    fn cancel_action_fires_the_token() {
        let _g = guard();
        arm(Site::Accept, Action::Cancel);
        let token = cod_influence::CancelToken::unlimited();
        hit(Site::Accept, Some(&token));
        assert!(token.is_cancelled());
        // Other sites stay disarmed.
        let other = cod_influence::CancelToken::unlimited();
        hit(Site::HfsLevel, Some(&other));
        assert!(!other.is_cancelled());
        disarm_all();
    }

    #[test]
    #[should_panic(expected = "failpoint RespWrite armed to panic")]
    fn panic_action_panics() {
        let _g = guard();
        arm(Site::RespWrite, Action::Panic);
        let out = std::panic::catch_unwind(|| hit(Site::RespWrite, None));
        disarm_all();
        drop(_g);
        // Re-raise outside the guard so cleanup always ran.
        if let Err(payload) = out {
            std::panic::resume_unwind(payload);
        }
    }
}
