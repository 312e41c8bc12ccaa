//! The worker side of a sharded campaign.
//!
//! One worker process owns one shard: it opens (or resumes) the shard's
//! write-ahead [`mbta::store`] file, walks its points in canonical
//! order, skips everything the store already holds, evaluates and
//! journals the rest, bumps a heartbeat file after every point, and
//! finally writes a done marker naming the point count and config
//! fingerprint. Everything a worker computes is a pure function of the
//! campaign config, so being kill -9'd at *any* instant loses at most
//! the in-flight point — the next attempt replays the store and
//! continues.
//!
//! The module also carries the process-level chaos plan: the SplitMix64
//! fault-plan discipline of [`mbta::FaultPlan`], lifted from jobs to
//! processes. Draws are pure in `(seed, point key, attempt)`, so a
//! seeded chaos campaign is reproducible and a killed attempt's retry
//! re-draws — crashes do not repeat forever.

use crate::config::{DseConfig, PointId};
use crate::error::DseError;
use crate::eval::{encode_verdict, evaluate_point, ModelRatios};
use mbta::args::take_parsed;
use mbta::Store;
use obs::Fnv;
use std::io::Write;
use std::path::{Path, PathBuf};
use tc27x_sim::rng::SplitMix64;

/// The store fingerprint of one shard: the campaign fingerprint plus
/// the shard split. A store written under a different split (or a
/// different campaign) is refused at open, not silently merged.
pub fn shard_fingerprint(cfg: &DseConfig, shards: u32, shard: u32) -> u64 {
    let mut h = Fnv::new();
    h.write_str_delimited("dse-shard/v1");
    h.write_u64(cfg.fingerprint());
    h.write_u64(u64::from(shards));
    h.write_u64(u64::from(shard));
    h.finish()
}

/// The shard's write-ahead result store.
pub fn store_path(state_dir: &Path, shard: u32) -> PathBuf {
    state_dir.join(format!("shard-{shard:04}.store"))
}

/// The shard's heartbeat file (rewritten after every point).
pub fn heartbeat_path(state_dir: &Path, shard: u32) -> PathBuf {
    state_dir.join(format!("shard-{shard:04}.hb"))
}

/// The shard's done marker.
pub fn done_path(state_dir: &Path, shard: u32) -> PathBuf {
    state_dir.join(format!("shard-{shard:04}.done"))
}

/// The worker's pid file, used by the supervisor to reap stale orphans
/// left behind when a previous supervisor was kill -9'd.
pub fn pid_path(state_dir: &Path, shard: u32) -> PathBuf {
    state_dir.join(format!("shard-{shard:04}.pid"))
}

/// The done marker's exact content — the supervisor validates it
/// byte-for-byte before trusting a shard.
pub fn done_marker(cfg: &DseConfig, shards: u32, shard: u32, points: usize) -> String {
    format!(
        "done {points} {:016x}\n",
        shard_fingerprint(cfg, shards, shard)
    )
}

/// A seeded process-level fault plan. Rates are per-point permille;
/// draws fold the attempt number, mirroring [`mbta::FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardChaos {
    /// Seed of the chaos stream.
    pub seed: u64,
    /// Permille chance a point aborts the worker (kill -9 semantics).
    pub kill_permille: u32,
    /// Permille chance a point stalls the worker until the watchdog
    /// kills it.
    pub stall_permille: u32,
    /// Given a kill: permille chance the store is left with a torn
    /// trailing record, as a crash mid-append would.
    pub tear_permille: u32,
    /// Restrict chaos to one shard (`None` = all shards).
    pub only_shard: Option<u32>,
}

impl ShardChaos {
    /// Removes the chaos flags (`--chaos-seed`, `--chaos-kill`,
    /// `--chaos-stall`, `--chaos-tear`, `--chaos-shard`) from a command
    /// line. Chaos is off (`None`) unless `--chaos-seed` is given.
    ///
    /// # Errors
    ///
    /// A missing or malformed value.
    pub fn take(args: &mut Vec<String>) -> Result<Option<ShardChaos>, String> {
        let seed = take_parsed(args, "--chaos-seed")?;
        let chaos = ShardChaos {
            seed: seed.unwrap_or(0),
            kill_permille: take_parsed(args, "--chaos-kill")?.unwrap_or(0),
            stall_permille: take_parsed(args, "--chaos-stall")?.unwrap_or(0),
            tear_permille: take_parsed(args, "--chaos-tear")?.unwrap_or(0),
            only_shard: take_parsed(args, "--chaos-shard")?,
        };
        Ok(seed.map(|_| chaos))
    }
}

/// What the chaos plan injects at one point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Proceed normally.
    None,
    /// Abort the process before the point is journaled.
    Kill {
        /// Also append a torn half-record to the store first.
        tear: bool,
    },
    /// Stop heartbeating and sleep until killed.
    Stall,
}

impl ShardChaos {
    /// The action for `point_key` on `attempt`, pure in all inputs.
    pub fn draw(&self, shard: u32, point_key: u64, attempt: u32) -> ChaosAction {
        if self.only_shard.is_some_and(|s| s != shard) {
            return ChaosAction::None;
        }
        let mut rng = SplitMix64::new(
            self.seed ^ point_key ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        if rng.below(1000) < u64::from(self.kill_permille) {
            return ChaosAction::Kill {
                tear: rng.below(1000) < u64::from(self.tear_permille),
            };
        }
        if rng.below(1000) < u64::from(self.stall_permille) {
            return ChaosAction::Stall;
        }
        ChaosAction::None
    }
}

/// What one worker attempt did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ShardRunStats {
    /// Points replayed from the store (work a crash did not lose).
    pub resumed: usize,
    /// Points evaluated and journaled by this attempt.
    pub computed: usize,
    /// Bytes of torn trailing record truncated during store recovery.
    pub truncated_bytes: u64,
}

fn write_heartbeat(path: &Path, counter: u64) -> Result<(), DseError> {
    // Plain overwrite, no fsync: losing a heartbeat only makes the
    // watchdog conservative, never incorrect.
    std::fs::write(path, format!("hb {counter}\n"))?;
    Ok(())
}

fn write_durable(path: &Path, content: &str) -> Result<(), DseError> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(content.as_bytes())?;
    f.sync_all()?;
    Ok(())
}

fn tear_store_tail(path: &Path) -> Result<(), DseError> {
    // Half a record, no newline: exactly what a crash mid-append leaves.
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    f.write_all(b"dead")?;
    f.sync_all()?;
    Ok(())
}

/// Runs one shard to completion: resume the store, evaluate the missing
/// points, write the done marker. `attempt` is the supervisor's spawn
/// count for this shard; it only feeds chaos draws, never results.
/// `point_delay_millis` slows each computed point down (used by the CI
/// smoke to widen the kill window); it too never affects results.
///
/// Chaos kills abort the process (the real `kill -9` code path — no
/// destructors, no flushes); stalls stop heartbeating until the
/// supervisor's watchdog fires.
///
/// # Errors
///
/// Store and filesystem failures; [`DseError::Config`] for an invalid
/// grid or a foreign store fingerprint.
// One parameter per `dse-worker` CLI flag, deliberately: the worker
// binary is a transparent shim over this function.
#[allow(clippy::too_many_arguments)]
pub fn run_shard(
    cfg: &DseConfig,
    shards: u32,
    shard: u32,
    state_dir: &Path,
    ratios: &ModelRatios,
    attempt: u32,
    chaos: Option<&ShardChaos>,
    point_delay_millis: u64,
) -> Result<ShardRunStats, DseError> {
    cfg.validate()?;
    if shard >= shards {
        return Err(DseError::Config(format!(
            "shard {shard} out of range for {shards} shards"
        )));
    }
    std::fs::create_dir_all(state_dir)?;
    write_durable(
        &pid_path(state_dir, shard),
        &format!("{}\n", std::process::id()),
    )?;

    let fp = shard_fingerprint(cfg, shards, shard);
    let path = store_path(state_dir, shard);
    let (store, existing, recovery) = Store::open(&path, "dse-shard", fp)?;

    let points: Vec<PointId> = cfg.shard_points(shards, shard);
    let hb = heartbeat_path(state_dir, shard);
    let mut stats = ShardRunStats {
        truncated_bytes: recovery.truncated_bytes,
        ..Default::default()
    };
    write_heartbeat(&hb, 0)?;

    for (i, point) in points.iter().enumerate() {
        let key = point.key(cfg);
        if existing.contains_key(&key) {
            stats.resumed += 1;
            continue;
        }
        match chaos.map_or(ChaosAction::None, |c| c.draw(shard, key, attempt)) {
            ChaosAction::None => {}
            ChaosAction::Kill { tear } => {
                if tear {
                    tear_store_tail(&path)?;
                }
                // The real crash path: no unwinding, no flushing.
                std::process::abort();
            }
            ChaosAction::Stall => {
                // Heartbeats stop here; the watchdog must kill us. The
                // abort is a backstop for unsupervised runs.
                std::thread::sleep(std::time::Duration::from_secs(3_600));
                std::process::abort();
            }
        }
        if point_delay_millis > 0 {
            std::thread::sleep(std::time::Duration::from_millis(point_delay_millis));
        }
        let verdict = evaluate_point(cfg, *point, ratios);
        store.put(key, &encode_verdict(*point, verdict))?;
        stats.computed += 1;
        write_heartbeat(&hb, (i + 1) as u64)?;
    }

    write_durable(
        &done_path(state_dir, shard),
        &done_marker(cfg, shards, shard, points.len()),
    )?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::model_ratios;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dse-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cfg() -> DseConfig {
        DseConfig {
            utils: 3,
            sets: 4,
            tasks: 3,
            ..Default::default()
        }
    }

    #[test]
    fn chaos_draws_are_pure_and_attempt_sensitive() {
        let chaos = ShardChaos {
            seed: 11,
            kill_permille: 500,
            stall_permille: 200,
            tear_permille: 500,
            only_shard: None,
        };
        let mut kinds = std::collections::BTreeSet::new();
        for key in 0..200u64 {
            let a = chaos.draw(0, key, 0);
            assert_eq!(a, chaos.draw(0, key, 0), "draw not pure at key {key}");
            kinds.insert(format!("{a:?}"));
        }
        assert!(kinds.len() >= 3, "plan never varied: {kinds:?}");
        // Folding the attempt must re-draw: some killed key survives
        // on a later attempt.
        let rescued = (0..200u64).any(|k| {
            matches!(chaos.draw(0, k, 0), ChaosAction::Kill { .. })
                && matches!(chaos.draw(0, k, 1), ChaosAction::None)
        });
        assert!(rescued, "no key was rescued by a retry");
    }

    #[test]
    fn chaos_respects_the_shard_restriction() {
        let chaos = ShardChaos {
            seed: 5,
            kill_permille: 1000,
            stall_permille: 0,
            tear_permille: 0,
            only_shard: Some(2),
        };
        assert_eq!(chaos.draw(1, 99, 0), ChaosAction::None);
        assert!(matches!(chaos.draw(2, 99, 0), ChaosAction::Kill { .. }));
    }

    #[test]
    fn a_clean_run_writes_store_heartbeat_and_done_marker() {
        let cfg = tiny_cfg();
        let dir = scratch("clean");
        let ratios = model_ratios(cfg.scenario, cfg.seed).unwrap();
        let stats = run_shard(&cfg, 2, 0, &dir, &ratios, 0, None, 0).unwrap();
        let expected = cfg.shard_points(2, 0).len();
        assert_eq!(stats.computed, expected);
        assert_eq!(stats.resumed, 0);
        let done = std::fs::read_to_string(done_path(&dir, 0)).unwrap();
        assert_eq!(done, done_marker(&cfg, 2, 0, expected));
        assert!(heartbeat_path(&dir, 0).exists());
        // A second attempt replays everything and recomputes nothing.
        let again = run_shard(&cfg, 2, 0, &dir, &ratios, 1, None, 0).unwrap();
        assert_eq!(again.resumed, expected);
        assert_eq!(again.computed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_store_tail_is_truncated_on_resume() {
        let cfg = tiny_cfg();
        let dir = scratch("torn");
        let ratios = model_ratios(cfg.scenario, cfg.seed).unwrap();
        let _ = run_shard(&cfg, 1, 0, &dir, &ratios, 0, None, 0).unwrap();
        std::fs::remove_file(done_path(&dir, 0)).unwrap();
        tear_store_tail(&store_path(&dir, 0)).unwrap();
        let stats = run_shard(&cfg, 1, 0, &dir, &ratios, 1, None, 0).unwrap();
        assert!(stats.truncated_bytes > 0, "tear was not reported");
        assert_eq!(stats.resumed as u64, cfg.total_points());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprints_are_refused() {
        let cfg = tiny_cfg();
        let dir = scratch("foreign");
        let ratios = model_ratios(cfg.scenario, cfg.seed).unwrap();
        let _ = run_shard(&cfg, 2, 0, &dir, &ratios, 0, None, 0).unwrap();
        // Same store file, different split: must be refused, not merged.
        let mut other = cfg.clone();
        other.seed ^= 77;
        let err = run_shard(&other, 2, 0, &dir, &ratios, 0, None, 0).unwrap_err();
        assert!(
            matches!(err, DseError::Journal(_)),
            "expected a journal refusal, got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
