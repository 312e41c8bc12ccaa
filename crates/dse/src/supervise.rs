//! The multi-process shard supervisor.
//!
//! Spawns one `dse-worker` subprocess per shard (at most `jobs` at a
//! time), and keeps the campaign alive through every failure mode the
//! chaos plan can produce:
//!
//! * **crashes** — a worker that exits abnormally (or exits zero
//!   without a valid done marker) is restarted under the deterministic
//!   [`mbta::retry`] discipline: bounded attempts, capped exponential
//!   backoff with SplitMix64 jitter keyed by the shard;
//! * **hangs** — each worker bumps a heartbeat file per point; a shard
//!   whose heartbeat goes stale past the watchdog is killed and treated
//!   as crashed;
//! * **stale orphans** — a predecessor supervisor that was kill -9'd
//!   leaves workers running; before spawning, the supervisor reads the
//!   shard's pid file and reaps any live `dse-worker` still writing to
//!   this state dir, so two writers never share a store;
//! * **exhaustion** — a shard that fails `max_attempts` times is marked
//!   FAILED and *excluded* from the curves but *included* in the
//!   coverage manifest; the run completes with a partial verdict
//!   instead of dropping data silently.
//!
//! The merge walks completed shards in shard order; since every point
//! record is a pure function of the campaign config and point keys
//! never cross shards, the merged map — and therefore the curves text —
//! is byte-identical at any `--shards`/`--jobs` split and across any
//! kill/resume history.

use crate::config::DseConfig;
use crate::curve::{curves, render_curves, render_curves_md, render_manifest, Coverage};
use crate::error::DseError;
use crate::shard::{
    done_marker, done_path, heartbeat_path, pid_path, shard_fingerprint, store_path, ShardChaos,
};
use mbta::{Backoff, RetryPolicy, Store};
use obs::Fnv;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Everything the supervisor needs for one campaign run.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The campaign.
    pub cfg: DseConfig,
    /// Shard count the space is partitioned into.
    pub shards: u32,
    /// Maximum concurrently running workers.
    pub jobs: u32,
    /// Directory for shard stores, heartbeats, markers and logs.
    pub state_dir: PathBuf,
    /// Path of the `dse-worker` binary.
    pub worker_bin: PathBuf,
    /// Heartbeat staleness threshold before a worker is killed.
    pub watchdog_millis: u64,
    /// Bounded-retry policy per shard.
    pub retry: RetryPolicy,
    /// Backoff between restarts of the same shard.
    pub backoff: Backoff,
    /// Allow a non-empty state dir and continue from its stores.
    pub resume: bool,
    /// Seeded process-level fault plan forwarded to workers.
    pub chaos: Option<ShardChaos>,
    /// Per-point delay forwarded to workers (CI kill-window widener).
    pub point_delay_millis: u64,
}

impl SupervisorConfig {
    /// A conservative default around `cfg`: caller still sets
    /// `state_dir` and `worker_bin`.
    pub fn new(cfg: DseConfig, state_dir: PathBuf, worker_bin: PathBuf) -> Self {
        SupervisorConfig {
            cfg,
            shards: 4,
            jobs: 2,
            state_dir,
            worker_bin,
            watchdog_millis: 5_000,
            retry: RetryPolicy::default(),
            backoff: Backoff::default(),
            resume: false,
            chaos: None,
            point_delay_millis: 0,
        }
    }
}

/// How one shard ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: u32,
    /// Times a worker was spawned for it.
    pub attempts: u32,
    /// Whether its done marker validated.
    pub completed: bool,
    /// Last failure observed, empty when none.
    pub note: String,
}

/// The merged result of a supervised campaign.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-shard outcomes, shard order.
    pub outcomes: Vec<ShardOutcome>,
    /// Coverage of the merged results.
    pub coverage: Coverage,
    /// The curves artifact (byte-stable for a fixed config).
    pub curves_text: String,
    /// The curves as a markdown table (`--report md`) — the same rows
    /// as `curves_text`, headed by the platform/arbitration variant.
    pub curves_md_text: String,
    /// The coverage manifest.
    pub manifest_text: String,
    /// `true` when any shard was dropped after exhausting retries.
    pub partial: bool,
    /// Point records each shard contributed to the merge, shard order
    /// (failed shards contribute zero).
    pub shard_points: Vec<(u32, u64)>,
    /// Wall-clock seconds from the first spawn decision to the end of
    /// the merge — host-dependent, reported only in the timing section
    /// of [`RunReport::render_summary`].
    pub wall_seconds: f64,
}

impl RunReport {
    /// End-of-run progress summary. The first section is a pure
    /// function of the shard journals and retry history — byte-stable
    /// for a fixed campaign outcome — while the trailing timing section
    /// carries the wall-clock throughput and is labelled
    /// nondeterministic so golden diffs know to strip it.
    pub fn render_summary(&self) -> String {
        let mut out = String::from("run summary (deterministic)\n");
        for o in &self.outcomes {
            let points = self
                .shard_points
                .iter()
                .find(|(s, _)| *s == o.shard)
                .map_or(0, |(_, p)| *p);
            let state = if o.completed { "done" } else { "FAILED" };
            out.push_str(&format!(
                "  shard {:04}: {points} point(s), {} attempt(s), {state}",
                o.shard, o.attempts
            ));
            if !o.note.is_empty() && !o.completed {
                out.push_str(&format!(" — {}", o.note));
            }
            out.push('\n');
        }
        let retries: u32 = self
            .outcomes
            .iter()
            .map(|o| o.attempts.saturating_sub(1))
            .sum();
        out.push_str(&format!(
            "  coverage: {}/{} points ({:.2}%), {}/{} shard(s) complete, {} failed\n",
            self.coverage.covered_points,
            self.coverage.total_points,
            self.coverage.fraction() * 100.0,
            self.coverage.completed.len(),
            self.coverage.shards,
            self.coverage.failed.len(),
        ));
        out.push_str(&format!("  retries: {retries}\n"));
        out.push_str("run timing (wall-clock, nondeterministic)\n");
        let rate = |points: u64| {
            if self.wall_seconds > 0.0 {
                points as f64 / self.wall_seconds
            } else {
                0.0
            }
        };
        out.push_str(&format!(
            "  wall {:.2}s, overall {:.1} points/s\n",
            self.wall_seconds,
            rate(self.coverage.covered_points)
        ));
        for (shard, points) in &self.shard_points {
            out.push_str(&format!(
                "  shard {shard:04}: {:.1} points/s\n",
                rate(*points)
            ));
        }
        out
    }
}

/// The backoff key of a shard — a distinct hash domain so shard delays
/// never correlate with point draws.
fn shard_backoff_key(cfg: &DseConfig, shard: u32) -> u64 {
    let mut h = Fnv::new();
    h.write_str_delimited("dse/shard-backoff");
    h.write_u64(cfg.fingerprint());
    h.write_u64(u64::from(shard));
    h.finish()
}

enum ShardState {
    Pending {
        not_before: Option<Instant>,
    },
    Running {
        child: Child,
        hb: String,
        hb_seen: Instant,
    },
    Done,
    Failed,
}

struct ShardSlot {
    state: ShardState,
    attempts: u32,
    note: String,
}

fn read_to_string_opt(path: &PathBuf) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `true` if `pid` is a live `dse-worker` operating on `state_dir`.
fn is_live_worker(pid: u64, state_dir: &std::path::Path) -> bool {
    let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
        return false;
    };
    let cmdline = String::from_utf8_lossy(&cmdline);
    cmdline.contains("dse-worker") && cmdline.contains(&state_dir.to_string_lossy().into_owned())
}

/// Kills any orphaned worker a kill -9'd predecessor supervisor left
/// holding this shard's store, then waits for it to disappear.
fn reap_stale_worker(sup: &SupervisorConfig, shard: u32) -> Result<(), DseError> {
    let pid_file = pid_path(&sup.state_dir, shard);
    let Some(text) = read_to_string_opt(&pid_file) else {
        return Ok(());
    };
    let Ok(pid) = text.trim().parse::<u64>() else {
        return Ok(());
    };
    if pid == u64::from(std::process::id()) || !is_live_worker(pid, &sup.state_dir) {
        return Ok(());
    }
    // Not our child, so SIGKILL via the system kill(1).
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    let deadline = Instant::now() + Duration::from_secs(10);
    while is_live_worker(pid, &sup.state_dir) {
        if Instant::now() > deadline {
            return Err(DseError::Config(format!(
                "stale worker pid {pid} for shard {shard} would not die"
            )));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(())
}

fn done_marker_valid(sup: &SupervisorConfig, shard: u32) -> bool {
    let expected = done_marker(
        &sup.cfg,
        sup.shards,
        shard,
        sup.cfg.shard_points(sup.shards, shard).len(),
    );
    read_to_string_opt(&done_path(&sup.state_dir, shard)).is_some_and(|got| got == expected)
}

fn spawn_worker(sup: &SupervisorConfig, shard: u32, attempt: u32) -> Result<Child, DseError> {
    reap_stale_worker(sup, shard)?;
    // A fresh attempt must not inherit the previous attempt's marker.
    let _ = std::fs::remove_file(done_path(&sup.state_dir, shard));
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(sup.state_dir.join(format!("shard-{shard:04}.log")))?;
    let log_err = log.try_clone()?;
    let mut cmd = Command::new(&sup.worker_bin);
    cmd.arg("--state-dir")
        .arg(&sup.state_dir)
        .args(["--shard", &shard.to_string()])
        .args(["--shards", &sup.shards.to_string()])
        .args(["--seed", &sup.cfg.seed.to_string()])
        .args(["--scenario", sup.cfg.scenario.token()])
        .args(["--utils", &sup.cfg.utils.to_string()])
        .args(["--util-min-ppm", &sup.cfg.util_min_ppm.to_string()])
        .args(["--util-max-ppm", &sup.cfg.util_max_ppm.to_string()])
        .args(["--sets", &sup.cfg.sets.to_string()])
        .args(["--tasks", &sup.cfg.tasks.to_string()])
        .args(["--attempt", &attempt.to_string()])
        .args(["--point-delay-ms", &sup.point_delay_millis.to_string()]);
    // Default-platform invocations stay byte-identical to older
    // supervisors; a non-default platform is forwarded by registry name
    // (the config fingerprint already binds its full description).
    if !sup.cfg.platform.is_default() {
        cmd.args(["--platform", sup.cfg.platform.name]);
    }
    cmd.stdin(Stdio::null()).stdout(log).stderr(log_err);
    if let Some(chaos) = &sup.chaos {
        cmd.args(["--chaos-seed", &chaos.seed.to_string()])
            .args(["--chaos-kill", &chaos.kill_permille.to_string()])
            .args(["--chaos-stall", &chaos.stall_permille.to_string()])
            .args(["--chaos-tear", &chaos.tear_permille.to_string()]);
        if let Some(only) = chaos.only_shard {
            cmd.args(["--chaos-shard", &only.to_string()]);
        }
    }
    Ok(cmd.spawn()?)
}

/// Runs a campaign under supervision and merges the result.
///
/// # Errors
///
/// [`DseError::Config`] for an invalid grid, a non-empty state dir
/// without `resume`, or corrupt merged records; I/O and journal errors
/// from the filesystem. A shard exhausting its retries is *not* an
/// error — it degrades the report to `partial`.
pub fn supervise(sup: &SupervisorConfig) -> Result<RunReport, DseError> {
    sup.cfg.validate()?;
    if sup.shards == 0 || sup.jobs == 0 {
        return Err(DseError::Config(
            "shards and jobs must be at least 1".to_string(),
        ));
    }
    if !sup.resume
        && sup
            .state_dir
            .read_dir()
            .map(|mut d| d.next().is_some())
            .unwrap_or(false)
    {
        return Err(DseError::Config(format!(
            "state dir {} is not empty; pass --resume to continue it",
            sup.state_dir.display()
        )));
    }
    std::fs::create_dir_all(&sup.state_dir)?;

    let started = Instant::now();
    let max_attempts = sup.retry.max_attempts.max(1);
    let mut slots: Vec<ShardSlot> = (0..sup.shards)
        .map(|shard| ShardSlot {
            state: if done_marker_valid(sup, shard) {
                ShardState::Done
            } else {
                ShardState::Pending { not_before: None }
            },
            attempts: 0,
            note: String::new(),
        })
        .collect();

    enum Transition {
        Stay,
        Complete,
        Crash(String),
    }

    loop {
        let mut running = 0u32;
        let mut unfinished = false;
        for shard in 0..sup.shards {
            let slot = &mut slots[shard as usize];
            let transition = match &mut slot.state {
                ShardState::Done | ShardState::Failed => Transition::Stay,
                ShardState::Pending { .. } => {
                    unfinished = true;
                    Transition::Stay
                }
                ShardState::Running { child, hb, hb_seen } => {
                    unfinished = true;
                    running += 1;
                    match child.try_wait()? {
                        Some(status) if status.success() && done_marker_valid(sup, shard) => {
                            Transition::Complete
                        }
                        Some(status) if status.success() => {
                            Transition::Crash("exited 0 without a valid done marker".to_string())
                        }
                        Some(status) => Transition::Crash(format!("worker died: {status}")),
                        None => {
                            let now = read_to_string_opt(&heartbeat_path(&sup.state_dir, shard))
                                .unwrap_or_default();
                            if now != *hb {
                                *hb = now;
                                *hb_seen = Instant::now();
                                Transition::Stay
                            } else if hb_seen.elapsed() > Duration::from_millis(sup.watchdog_millis)
                            {
                                // Hung: kill and reap, then treat as a crash.
                                let _ = child.kill();
                                let _ = child.wait();
                                Transition::Crash(format!(
                                    "hung: no heartbeat for {}ms",
                                    sup.watchdog_millis
                                ))
                            } else {
                                Transition::Stay
                            }
                        }
                    }
                }
            };
            match transition {
                Transition::Stay => {}
                Transition::Complete => {
                    slot.state = ShardState::Done;
                    running -= 1;
                }
                Transition::Crash(note) => {
                    running -= 1;
                    slot.note = note;
                    if slot.attempts >= max_attempts {
                        slot.state = ShardState::Failed;
                    } else {
                        let delay = sup
                            .backoff
                            .delay_millis(shard_backoff_key(&sup.cfg, shard), slot.attempts);
                        slot.state = ShardState::Pending {
                            not_before: Some(Instant::now() + Duration::from_millis(delay)),
                        };
                    }
                }
            }
        }
        if !unfinished {
            break;
        }
        for shard in 0..sup.shards {
            if running >= sup.jobs {
                break;
            }
            let slot = &mut slots[shard as usize];
            let not_before = match &slot.state {
                ShardState::Pending { not_before } => *not_before,
                _ => continue,
            };
            if not_before.is_some_and(|t| Instant::now() < t) {
                continue;
            }
            let child = spawn_worker(sup, shard, slot.attempts)?;
            slot.attempts += 1;
            slot.state = ShardState::Running {
                child,
                hb: String::new(),
                hb_seen: Instant::now(),
            };
            running += 1;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Merge completed shards in shard order. Keys never collide across
    // shards (`key % shards` is the owner), so insertion order cannot
    // change the map — the curves depend only on the config.
    let mut merged: BTreeMap<u64, String> = BTreeMap::new();
    let mut completed = Vec::new();
    let mut failed = Vec::new();
    let mut shard_points = Vec::new();
    for (shard, slot) in slots.iter().enumerate() {
        let shard = shard as u32;
        match slot.state {
            ShardState::Done => {
                let fp = shard_fingerprint(&sup.cfg, sup.shards, shard);
                let (_store, entries, _recovery) =
                    Store::open(&store_path(&sup.state_dir, shard), "dse-shard", fp)?;
                shard_points.push((shard, entries.len() as u64));
                merged.extend(entries);
                completed.push(shard);
            }
            ShardState::Failed => {
                shard_points.push((shard, 0));
                failed.push(shard);
            }
            _ => {
                return Err(DseError::Config(format!(
                    "shard {shard} left non-terminal — supervisor bug"
                )))
            }
        }
    }

    let coverage = Coverage {
        shards: sup.shards,
        completed,
        failed: failed.clone(),
        covered_points: merged.len() as u64,
        total_points: sup.cfg.total_points(),
    };
    let rows = curves(&sup.cfg, &merged)?;
    let curves_text = render_curves(&sup.cfg, &rows);
    let curves_md_text = render_curves_md(&sup.cfg, &rows);
    let attempts: Vec<(u32, u32)> = slots
        .iter()
        .enumerate()
        .map(|(s, slot)| (s as u32, slot.attempts))
        .collect();
    let manifest_text = render_manifest(&sup.cfg, &coverage, &attempts);
    let outcomes = slots
        .iter()
        .enumerate()
        .map(|(s, slot)| ShardOutcome {
            shard: s as u32,
            attempts: slot.attempts,
            completed: matches!(slot.state, ShardState::Done),
            note: slot.note.clone(),
        })
        .collect();
    Ok(RunReport {
        outcomes,
        coverage,
        curves_text,
        curves_md_text,
        manifest_text,
        partial: !failed.is_empty(),
        shard_points,
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::Coverage;

    #[test]
    fn run_summary_separates_deterministic_rows_from_wall_timing() {
        let report = RunReport {
            outcomes: vec![
                ShardOutcome {
                    shard: 0,
                    attempts: 1,
                    completed: true,
                    note: String::new(),
                },
                ShardOutcome {
                    shard: 1,
                    attempts: 3,
                    completed: false,
                    note: "worker died: signal 9".to_string(),
                },
            ],
            coverage: Coverage {
                shards: 2,
                completed: vec![0],
                failed: vec![1],
                covered_points: 12,
                total_points: 24,
            },
            curves_text: String::new(),
            curves_md_text: String::new(),
            manifest_text: String::new(),
            partial: true,
            shard_points: vec![(0, 12), (1, 0)],
            wall_seconds: 2.0,
        };
        let s = report.render_summary();
        let det: String = s
            .lines()
            .take_while(|l| !l.starts_with("run timing"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(det.contains("shard 0000: 12 point(s), 1 attempt(s), done"));
        assert!(det.contains("shard 0001: 0 point(s), 3 attempt(s), FAILED — worker died"));
        assert!(det.contains("coverage: 12/24 points (50.00%), 1/2 shard(s) complete, 1 failed"));
        assert!(det.contains("retries: 2"), "{det}");
        assert!(
            !det.contains("points/s"),
            "wall rate leaked into det: {det}"
        );
        assert!(s.contains("wall 2.00s, overall 6.0 points/s"), "{s}");
        assert!(s.contains("shard 0000: 6.0 points/s"), "{s}");
    }
}
