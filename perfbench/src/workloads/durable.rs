//! `bridge_durable`: the repaired bridge checked through one storage
//! layer used two ways, in turns. A checkpointed search rewrites a whole
//! snapshot through the generation sink every [`CHECKPOINT_EVERY`]
//! states; a spilling search crosses [`SPILL_AT_BYTES`] mid-run and moves
//! its visited set and frontier to sorted runs it appends and merges. Both write through the
//! kernel's real filesystem to a fresh directory, kept in the page cache
//! (see `storage`). Threads = 1 only: the parallel engine ignores the
//! spill threshold.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pnp_kernel::{GenSink, GenStore, Snapshot, SnapshotSink, VfsHandle};
use pnp_lang::{ArchSpec, PropertyResult, SinkFactory, VerifyOptions};

use super::{check_verdicts, options, timed_loop, Run, Setup};
use crate::report::Report;
use crate::specs::{render, BRIDGE_FIXED};
use crate::stats::Summary;
use crate::storage::{PageCacheFs, SinkCounters, TimedSink, TimedVfs, VfsCounters};
use crate::trace;

/// States between periodic checkpoints (the `pnp-check` default).
pub const CHECKPOINT_EVERY: usize = 4096;
/// Estimated search memory past which the search spills. Above about
/// 32 MiB the spill buffers are at their largest, and 32 MiB is crossed
/// early enough that most of the search runs out of core.
pub const SPILL_AT_BYTES: usize = 32 << 20;
/// Decode-and-encode round trips of the last checkpoint on the traced
/// run; `snapshot.codec_mb_per_s` is taken from their median.
const CODEC_REPS: usize = 5;

/// The wrappers' counts of one operation's storage.
type Counters = (Option<Arc<VfsCounters>>, Option<Arc<SinkCounters>>);

/// Numbers the storage directories of this process.
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Storage for one operation: a fresh directory under `.bench_out`,
/// removed when this is dropped, and the filesystem, wrapped on the
/// traced run.
pub struct Storage {
    dir: PathBuf,
    /// The filesystem handed to `VerifyOptions.vfs`.
    pub vfs: VfsHandle,
    /// The wrapper's counts, when wrapped.
    pub vfs_counters: Option<Arc<VfsCounters>>,
    /// The sink wrapper's counts, when wrapped.
    pub sink_counters: Option<Arc<SinkCounters>>,
}

impl Storage {
    /// A fresh directory holding the checkpoint and spill directories,
    /// with the timing wrappers when `wrapped`.
    pub fn new(wrapped: bool) -> Result<Storage, String> {
        let dir = PathBuf::from(".bench_out").join(format!(
            "durable-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let fs = PageCacheFs::handle();
        let mut storage = Storage {
            dir,
            vfs: fs.clone(),
            vfs_counters: None,
            sink_counters: None,
        };
        for sub in [
            storage.checkpoint_base().parent(),
            Some(&storage.spill_dir()),
        ]
        .into_iter()
        .flatten()
        {
            fs.create_dir_all(sub)
                .map_err(|e| format!("{}: {e}", sub.display()))?;
        }
        if wrapped {
            let (vfs, counters) = TimedVfs::wrap(fs);
            storage.vfs = vfs;
            storage.vfs_counters = Some(counters);
            storage.sink_counters = Some(Arc::default());
        }
        Ok(storage)
    }

    fn checkpoint_base(&self) -> PathBuf {
        self.dir.join("checkpoint").join("bridge")
    }

    fn spill_dir(&self) -> PathBuf {
        self.dir.join("spill")
    }

    /// Options for the periodic-checkpoint run. The wrapped sink is the
    /// same generation sink the default would build, inside a
    /// [`TimedSink`].
    pub fn checkpoint_options(&self) -> VerifyOptions {
        let checkpoint_sink = self.sink_counters.as_ref().map(|counters| {
            let (vfs, counters) = (self.vfs.clone(), Arc::clone(counters));
            let factory: SinkFactory = Arc::new(move |path: &Path| -> Box<dyn SnapshotSink> {
                let inner = Box::new(GenSink::new(vfs.clone(), path));
                Box::new(TimedSink::new(inner, Arc::clone(&counters)))
            });
            factory
        });
        VerifyOptions {
            checkpoint: Some((self.checkpoint_base(), CHECKPOINT_EVERY)),
            checkpoint_sink,
            vfs: Some(self.vfs.clone()),
            ..options(1)
        }
    }

    /// Options for the spilling run.
    pub fn spill_options(&self) -> VerifyOptions {
        let mut options = options(1);
        options.config.spill_at_bytes = Some(SPILL_AT_BYTES);
        options.vfs = Some(self.vfs.clone());
        options.spill_dir = Some(self.spill_dir());
        options
    }

    /// The newest checkpoint payload the sink committed.
    pub fn latest_checkpoint(&self) -> Result<Vec<u8>, String> {
        let scan = GenStore::new(self.vfs.clone(), self.checkpoint_base())
            .scan()
            .map_err(|e| e.to_string())?;
        scan.latest()
            .map(|(_, payload)| payload.clone())
            .ok_or_else(|| "no checkpoint generation was committed".to_string())
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        // Best effort: a directory left behind is under `.bench_out`.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Decodes `payload` and encodes it again; `true` when the snapshot
/// belongs to `spec` and round-trips byte for byte.
pub fn snapshot_round_trips(spec: &ArchSpec, payload: &[u8]) -> bool {
    let decoded = {
        let _span = trace::span("snapshot.decode");
        Snapshot::decode(payload)
    };
    let Ok(snapshot) = decoded else {
        return false;
    };
    let encoded = {
        let _span = trace::span("snapshot.encode");
        snapshot.encode()
    };
    snapshot.matches_program(spec.system().program()) && encoded == payload
}

/// Runs the workload. Operations take turns in pairs: two checkpointed
/// searches, then two spilling ones, so that on the traced run, which
/// traces every other operation, both kinds are traced and untraced. A
/// sample of `verify_s` is one checkpointed search plus one spilling
/// search.
///
/// # Errors
///
/// A spec that fails to compile, or a broken model.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut rng = run.rng();
    let fixed_text = render(BRIDGE_FIXED, &mut rng);
    let mut report = Report::default();
    let (mut setup, prepared) = Setup::start(run, &[&fixed_text], 0)?;
    let fixed = &prepared[0].spec;

    // Untraced search times, checkpointed and spilling.
    let (mut checkpoint_s, mut spill_s) = (Vec::new(), Vec::new());
    let mut last_checkpoint: Option<(Counters, Vec<u8>)> = None;
    let mut last_spill: Option<(Counters, PropertyResult)> = None;
    let (plain, traced) = timed_loop(run, 4, (&mut setup, &prepared), |i| {
        let storage = Storage::new(trace::enabled())?;
        let counters = (storage.vfs_counters.clone(), storage.sink_counters.clone());
        let spilling = (i / 2) % 2 == 1;
        let start = Instant::now();
        let results = if spilling {
            let _span = trace::span("verify.spill");
            fixed.verify_all_with_options(&storage.spill_options())
        } else {
            let _span = trace::span("verify.checkpoint");
            fixed.verify_all_with_options(&storage.checkpoint_options())
        };
        let elapsed = start.elapsed().as_secs_f64();
        let label = if spilling { "spilled" } else { "checkpointed" };
        let results = check_verdicts(&mut report, label, results, &[("no_crash", true)]);
        if !trace::enabled() {
            [&mut checkpoint_s, &mut spill_s][usize::from(spilling)].push(elapsed);
        }
        if spilling {
            if trace::enabled() {
                last_spill = results.into_iter().next().map(|r| (counters, r));
            }
            return Ok(());
        }
        // The last checkpoint must decode into this spec's snapshot and
        // encode back to the same bytes.
        let payload = storage.latest_checkpoint()?;
        let round_trips = snapshot_round_trips(fixed, &payload);
        report.check(round_trips, || "checkpoint does not round-trip".into());
        if trace::enabled() {
            last_checkpoint = Some((counters, payload));
        }
        Ok(())
    })?;
    setup.finish(&mut report, &prepared)?;

    if !run.traced {
        let pairs: Vec<f64> = checkpoint_s
            .iter()
            .zip(&spill_s)
            .map(|(c, s)| c + s)
            .collect();
        super::set_verify_metrics(&mut report, &pairs);
        report.set("peak_rss_mb", super::peak_rss_mb("self")?);
        return Ok(report);
    }

    let spans = trace::recorded();
    super::set_trace_metrics(&mut report, &plain, &traced, &spans);
    let (Some((checkpoint, payload)), Some((spill, spilled))) = (last_checkpoint, last_spill)
    else {
        return Err("no traced operation of each kind ran".into());
    };
    // The counters are the last traced pair's; span times are averaged
    // over the traced pairs.
    let pairs = traced.len() as f64 / 2.0;
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
    let both = |field: fn(&VfsCounters) -> &AtomicU64| {
        [&checkpoint, &spill]
            .iter()
            .filter_map(|(vfs, _)| vfs.as_deref())
            .map(|vfs| count(field(vfs)))
            .sum::<f64>()
    };
    let sink = checkpoint.1.as_deref().ok_or("traced storage is wrapped")?;
    let stores = count(&sink.stores);
    report.set("snapshot.stores", stores);
    report.set(
        "snapshot.bytes_per_store",
        count(&sink.bytes) / stores.max(1.0),
    );
    let selfs = trace::self_times(&spans);
    report.set(
        "snapshot.store_ms",
        trace::self_ms(&selfs, "snapshot.store") / pairs,
    );
    report.set("vfs.write_ops", both(|c| &c.writes));
    report.set("vfs.read_ops", both(|c| &c.reads));
    report.set("vfs.sync_ops", both(|c| &c.syncs));
    report.set("vfs.rename_ops", both(|c| &c.renames));
    report.set("vfs.write_mb", both(|c| &c.write_bytes) / 1e6);
    report.set("vfs.busy_ms", trace::self_ms(&selfs, "vfs.") / pairs);
    report.set(
        "spill.bytes_per_state",
        spilled.spill_bytes as f64 / spilled.states as f64,
    );
    report.set("spill.merge_passes", spilled.merge_passes as f64);

    let mut samples = Vec::with_capacity(CODEC_REPS);
    for _ in 0..CODEC_REPS {
        let start = Instant::now();
        let round_trips = snapshot_round_trips(fixed, &payload);
        samples.push(start.elapsed().as_secs_f64());
        report.check(round_trips, || "checkpoint does not round-trip".into());
    }
    let codec_s = Summary::new(&samples).expect("CODEC_REPS > 0").median();
    report.set(
        "snapshot.codec_mb_per_s",
        2.0 * payload.len() as f64 / 1e6 / codec_s,
    );
    Ok(report)
}
