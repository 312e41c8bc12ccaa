//! Benches for crash-safe campaigns: what the write-ahead journal
//! costs on top of a plain engine batch, how fast a finished journal
//! resumes (replay, zero simulation), and the raw fsync'd append
//! throughput. Writes `BENCH_campaign.json` at the repo root.

use contention_bench::harness::{Harness, MetaEnvelope};
use contention_bench::sweep_batch;
use mbta::store::CAMPAIGN_NAMESPACE;
use mbta::{ExecEngine, SimJob, Store};
use std::hint::black_box;
use std::path::PathBuf;
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::{contender, control_loop, LoadLevel};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mbta-campaign-bench-{}-{name}", std::process::id()));
    p
}

/// A Figure-4-panel-sized batch: one app isolation plus the three
/// contender levels, each with its isolation and co-run.
fn panel_batch() -> Vec<SimJob> {
    let (a, b) = (CoreId(1), CoreId(2));
    let app = control_loop(DeploymentScenario::Scenario1, a, 42);
    let mut jobs = vec![SimJob::Isolation {
        spec: app.clone(),
        core: a,
    }];
    for level in LoadLevel::all() {
        let load = contender(DeploymentScenario::Scenario1, level, b, 7);
        jobs.push(SimJob::Isolation {
            spec: load.clone(),
            core: b,
        });
        jobs.push(SimJob::Corun {
            app: app.clone(),
            app_core: a,
            load,
            load_core: b,
        });
    }
    jobs
}

fn main() {
    // `finish()` writes BENCH_<group>.json into the working directory;
    // anchor it at the repo root regardless of where cargo was invoked.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("warning: could not enter {}: {e}", root.display());
    }

    let mut h = Harness::new("campaign");
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every engine below is ExecEngine::new(2) on the default kernel.
    h.set_envelope(MetaEnvelope::new(&args, "event", 2));
    h.sample_size(5);
    let batch = panel_batch();

    // Baseline: the same batch on a bare engine, simulated from scratch
    // every call (fresh engine, cold memo cache).
    h.bench("panel_batch_no_journal", || {
        let engine = ExecEngine::new(2);
        black_box(engine.run_batch_detailed(&batch))
    });

    // The tentpole overhead number: identical work, but every outcome
    // is framed, checksummed, written and fsync'd to the journal.
    let journaled_path = tmp("overhead");
    let journaled = |batch: &[SimJob]| {
        let engine = ExecEngine::new(2);
        engine.journal(&journaled_path).expect("create journal");
        black_box(engine.run_batch_detailed(batch))
    };
    h.bench("panel_batch_journaled", || journaled(&batch));

    // The same pair over a full Scenario 1 sweep batch (one app, eleven
    // contender intensities). Its contenders end early in the app's
    // run, so its co-runs splice their tails — journaled or not; the
    // panel's contenders outlive the app and never splice.
    let sweep = sweep_batch(
        platform::default_platform(),
        DeploymentScenario::Scenario1,
        &(0..=1_000).step_by(100).collect::<Vec<u32>>(),
    );
    h.bench("sweep_batch_no_journal", || {
        let engine = ExecEngine::new(2);
        black_box(engine.run_batch_detailed(&sweep))
    });
    h.bench("sweep_batch_journaled", || journaled(&sweep));

    // Resume wall-time: recover a finished journal and replay the whole
    // batch without a single simulation.
    let finished_path = tmp("finished");
    {
        let engine = ExecEngine::new(2);
        engine.journal(&finished_path).expect("create journal");
        engine.run_batch_detailed(&batch);
    }
    h.bench("panel_batch_resume_replay", || {
        let engine = ExecEngine::new(2);
        engine.resume(&finished_path).expect("resume journal");
        black_box(engine.run_batch_detailed(&batch))
    });

    // Raw journal throughput: 64 fsync'd co-run records per call, in
    // the shape a campaign appends them.
    let append_path = tmp("append");
    h.throughput_elements(64)
        .bench("journal_append_64_records", || {
            let journal =
                Store::create(&append_path, CAMPAIGN_NAMESPACE, 0xfeed).expect("create journal");
            for key in 0..64u64 {
                journal
                    .put(key, &format!("0 ok corun {}", key * 1_000))
                    .expect("append record");
            }
            black_box(())
        });

    h.finish();
    std::fs::remove_file(&journaled_path).ok();
    std::fs::remove_file(&finished_path).ok();
    std::fs::remove_file(&append_path).ok();
}
