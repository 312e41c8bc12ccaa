//! Merged curves and the coverage manifest.
//!
//! Two artifacts come out of a campaign:
//!
//! * **curves** — schedulable fraction per utilization level per model,
//!   computed over the *covered* points only. The text depends only on
//!   the campaign config and the set of merged point records, so a
//!   fully covered run renders byte-identical curves at any shard or
//!   worker split, and a resumed run reproduces the undisturbed bytes.
//! * **manifest** — the explicit coverage statement: which shards
//!   completed, which exhausted their retries, and what fraction of the
//!   design space the curves actually describe. A failed shard is loud
//!   here, never silently absorbed into the curves.

use crate::config::DseConfig;
use crate::error::DseError;
use crate::eval::decode_verdict;
use std::collections::BTreeMap;

/// Aggregated verdicts for one utilization level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CurveRow {
    /// Total utilization of the level, ppm.
    pub util_ppm: u64,
    /// Points of this level present in the merged results.
    pub covered: u32,
    /// Replicates drawn at this level (`covered` ≤ this).
    pub total: u32,
    /// Schedulable count under the ideal model.
    pub ideal: u32,
    /// Schedulable count under fTC.
    pub ftc: u32,
    /// Schedulable count under ILP-PTAC.
    pub ilp: u32,
}

/// Aggregates merged point records into per-level curve rows.
///
/// # Errors
///
/// [`DseError::Config`] when a record is malformed or claims a point
/// that does not match its key — corrupt state must never be averaged
/// into a curve silently.
pub fn curves(cfg: &DseConfig, merged: &BTreeMap<u64, String>) -> Result<Vec<CurveRow>, DseError> {
    let mut rows: Vec<CurveRow> = (0..cfg.utils)
        .map(|u_idx| CurveRow {
            util_ppm: cfg.util_ppm(u_idx),
            covered: 0,
            total: cfg.sets,
            ideal: 0,
            ftc: 0,
            ilp: 0,
        })
        .collect();
    for point in cfg.points() {
        let Some(value) = merged.get(&point.key(cfg)) else {
            continue;
        };
        let (recorded, verdict) = decode_verdict(value)
            .map_err(|e| DseError::Config(format!("shard record for {point:?}: {e}")))?;
        if recorded != point {
            return Err(DseError::Config(format!(
                "shard record keyed for {point:?} claims {recorded:?}"
            )));
        }
        let row = &mut rows[point.u_idx as usize];
        row.covered += 1;
        row.ideal += u32::from(verdict.ideal);
        row.ftc += u32::from(verdict.ftc);
        row.ilp += u32::from(verdict.ilp);
    }
    Ok(rows)
}

fn frac(count: u32, covered: u32) -> String {
    if covered == 0 {
        "     -".to_string()
    } else {
        format!("{:.4}", f64::from(count) / f64::from(covered))
    }
}

/// Renders the curves artifact. Deliberately free of shard, worker,
/// retry or chaos details: equal config + equal merged records ⇒ equal
/// bytes.
pub fn render_curves(cfg: &DseConfig, rows: &[CurveRow]) -> String {
    let mut out = String::new();
    out.push_str("# dse-curves v1\n");
    out.push_str(&format!(
        "# config {:016x} scenario {} seed {} utils {} sets {} tasks {}\n",
        cfg.fingerprint(),
        cfg.scenario.token(),
        cfg.seed,
        cfg.utils,
        cfg.sets,
        cfg.tasks
    ));
    out.push_str("# columns: util_ppm covered/total sched_ideal sched_ftc sched_ilp\n");
    for row in rows {
        out.push_str(&format!(
            "{:>7} {:>4}/{:<4} {} {} {}\n",
            row.util_ppm,
            row.covered,
            row.total,
            frac(row.ideal, row.covered),
            frac(row.ftc, row.covered),
            frac(row.ilp, row.covered),
        ));
    }
    out
}

/// Renders the curves as a GitHub-flavoured markdown table (the
/// supervisor's `--report md`): the same rows as [`render_curves`],
/// headed by the platform and its per-slave arbitration so
/// cross-platform reports are self-describing. A test holds the two
/// artifacts cell-for-cell equal, and the bytes are stable under the
/// same conditions as the text artifact.
pub fn render_curves_md(cfg: &DseConfig, rows: &[CurveRow]) -> String {
    use std::fmt::Write as _;
    let arbitration: Vec<String> = cfg
        .platform
        .slaves
        .iter()
        .filter(|s| s.present)
        .map(|s| format!("{}:{}", s.name, s.arbitration))
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Schedulability curves — platform `{}` ({}), scenario `{}`",
        cfg.platform.name,
        arbitration.join(" "),
        cfg.scenario.token()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Config `{:016x}`: seed {}, {} levels × {} sets × {} tasks.",
        cfg.fingerprint(),
        cfg.seed,
        cfg.utils,
        cfg.sets,
        cfg.tasks
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| util_ppm | covered | sched_ideal | sched_ftc | sched_ilp |"
    );
    let _ = writeln!(out, "|---:|---:|---:|---:|---:|");
    for row in rows {
        let _ = writeln!(
            out,
            "| {} | {}/{} | {} | {} | {} |",
            row.util_ppm,
            row.covered,
            row.total,
            frac(row.ideal, row.covered).trim(),
            frac(row.ftc, row.covered).trim(),
            frac(row.ilp, row.covered).trim(),
        );
    }
    out
}

/// What the merged results actually cover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coverage {
    /// Shard count of the run.
    pub shards: u32,
    /// Shards whose done marker validated.
    pub completed: Vec<u32>,
    /// Shards that exhausted their retries.
    pub failed: Vec<u32>,
    /// Point records present after the merge.
    pub covered_points: u64,
    /// Points in the design space.
    pub total_points: u64,
}

impl Coverage {
    /// Covered fraction of the design space in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total_points == 0 {
            return 1.0;
        }
        self.covered_points as f64 / self.total_points as f64
    }

    /// `true` when every shard completed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.completed.len() as u32 == self.shards
    }
}

/// Renders the coverage manifest, including per-shard attempt counts
/// (`attempts` = times a worker was spawned for the shard).
pub fn render_manifest(cfg: &DseConfig, coverage: &Coverage, attempts: &[(u32, u32)]) -> String {
    let mut out = String::new();
    out.push_str("# dse-manifest v1\n");
    out.push_str(&format!(
        "# config {:016x} shards {}\n",
        cfg.fingerprint(),
        coverage.shards
    ));
    out.push_str(&format!(
        "# coverage {}/{} = {:.4}\n",
        coverage.covered_points,
        coverage.total_points,
        coverage.fraction()
    ));
    out.push_str(&format!(
        "# status {}\n",
        if coverage.is_complete() {
            "complete"
        } else {
            "partial"
        }
    ));
    for &(shard, tries) in attempts {
        let state = if coverage.failed.contains(&shard) {
            "FAILED"
        } else {
            "completed"
        };
        out.push_str(&format!("shard {shard:04} {state} attempts {tries}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{encode_verdict, PointVerdict};

    fn small_cfg() -> DseConfig {
        DseConfig {
            utils: 3,
            sets: 4,
            ..Default::default()
        }
    }

    fn full_merge(cfg: &DseConfig, verdict: PointVerdict) -> BTreeMap<u64, String> {
        cfg.points()
            .map(|p| (p.key(cfg), encode_verdict(p, verdict)))
            .collect()
    }

    #[test]
    fn curves_count_per_level() {
        let cfg = small_cfg();
        let all_good = PointVerdict {
            ideal: true,
            ftc: true,
            ilp: true,
        };
        let rows = curves(&cfg, &full_merge(&cfg, all_good)).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.covered, 4);
            assert_eq!((row.ideal, row.ftc, row.ilp), (4, 4, 4));
        }
    }

    #[test]
    fn rendering_is_stable_and_marks_uncovered_levels() {
        let cfg = small_cfg();
        let verdict = PointVerdict {
            ideal: true,
            ftc: false,
            ilp: true,
        };
        let mut merged = full_merge(&cfg, verdict);
        // Drop every record of level 1: its row must show "-" not 0.
        for p in cfg.points().filter(|p| p.u_idx == 1) {
            merged.remove(&p.key(&cfg));
        }
        let text = render_curves(&cfg, &curves(&cfg, &merged).unwrap());
        assert_eq!(text, render_curves(&cfg, &curves(&cfg, &merged).unwrap()));
        assert!(text.contains("0/4"), "{text}");
        assert!(text.contains("-"), "{text}");
        assert!(text.contains("1.0000"), "{text}");
        assert!(text.contains("0.0000"), "{text}");
    }

    #[test]
    fn markdown_report_matches_the_text_artifact_cell_for_cell() {
        let cfg = small_cfg();
        let verdict = PointVerdict {
            ideal: true,
            ftc: false,
            ilp: true,
        };
        let mut merged = full_merge(&cfg, verdict);
        // Leave level 1 uncovered so the "-" cells are exercised too.
        for p in cfg.points().filter(|p| p.u_idx == 1) {
            merged.remove(&p.key(&cfg));
        }
        let rows = curves(&cfg, &merged).unwrap();
        let txt = render_curves(&cfg, &rows);
        let md = render_curves_md(&cfg, &rows);
        assert_eq!(md, render_curves_md(&cfg, &rows), "md must be byte-stable");
        assert!(
            md.contains(&format!("platform `{}`", cfg.platform.name)),
            "{md}"
        );
        assert!(md.contains("prr"), "arbitration must be named: {md}");
        // Every data row of curves.txt appears, cell for cell, in the
        // markdown table.
        let txt_rows: Vec<Vec<String>> = txt
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                l.replace('/', " ")
                    .split_whitespace()
                    .map(str::to_string)
                    .collect()
            })
            .collect();
        let md_rows: Vec<Vec<String>> = md
            .lines()
            .filter(|l| l.starts_with("| ") && !l.contains("util_ppm"))
            .map(|l| {
                l.trim_matches('|')
                    .replace('/', " ")
                    .split_whitespace()
                    .filter(|c| *c != "|")
                    .map(str::to_string)
                    .collect()
            })
            .collect();
        assert_eq!(txt_rows, md_rows, "txt:\n{txt}\nmd:\n{md}");
    }

    #[test]
    fn corrupt_records_are_rejected_not_averaged() {
        let cfg = small_cfg();
        let verdict = PointVerdict {
            ideal: true,
            ftc: true,
            ilp: true,
        };
        let mut merged = full_merge(&cfg, verdict);
        let first = cfg.points().next().unwrap();
        merged.insert(first.key(&cfg), "pt 9 9 111".to_string());
        assert!(curves(&cfg, &merged).is_err(), "mismatched point accepted");
        merged.insert(first.key(&cfg), "garbage".to_string());
        assert!(curves(&cfg, &merged).is_err(), "garbage record accepted");
    }

    #[test]
    fn manifest_states_partial_coverage_loudly() {
        let cfg = small_cfg();
        let cov = Coverage {
            shards: 3,
            completed: vec![0, 2],
            failed: vec![1],
            covered_points: 8,
            total_points: 12,
        };
        assert!(!cov.is_complete());
        let text = render_manifest(&cfg, &cov, &[(0, 1), (1, 3), (2, 2)]);
        assert!(text.contains("# status partial"), "{text}");
        assert!(text.contains("shard 0001 FAILED attempts 3"), "{text}");
        assert!(text.contains("# coverage 8/12 = 0.6667"), "{text}");
        let complete = Coverage {
            shards: 1,
            completed: vec![0],
            failed: vec![],
            covered_points: 12,
            total_points: 12,
        };
        let text = render_manifest(&cfg, &complete, &[(0, 1)]);
        assert!(text.contains("# status complete"), "{text}");
    }
}
