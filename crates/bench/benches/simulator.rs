//! Benches for the TC27x simulator: cycles simulated per second on the
//! evaluation workloads.

use contention_bench::harness::Harness;
use std::hint::black_box;
use tc27x_sim::{CoreId, DeploymentScenario, System};
use workloads::{contender_on, control_loop_on, LoadLevel};

fn main() {
    let mut h = Harness::new("simulator");
    h.sample_size(10);

    // Measure once to learn the cycle count, then report throughput.
    let core = CoreId(1);
    let (desc, scenario) = (platform::default_platform(), DeploymentScenario::Scenario1);
    let app = control_loop_on(desc, scenario, core, 42);
    let cycles = {
        let mut sys = System::tc277();
        sys.load(core, &app).unwrap();
        sys.run().unwrap().counters(core).ccnt
    };
    h.throughput_elements(cycles);
    h.bench("isolation_control_loop_sc1", || {
        let mut sys = System::tc277();
        sys.load(core, &app).unwrap();
        black_box(sys.run().unwrap().counters(core).ccnt)
    });

    let load = contender_on(desc, scenario, LoadLevel::High, CoreId(2), 7);
    h.bench("corun_app_vs_hload_sc1", || {
        let mut sys = System::tc277();
        sys.load(core, &app).unwrap();
        sys.load(CoreId(2), &load).unwrap();
        black_box(sys.run_until(core).unwrap().counters(core).ccnt)
    });

    h.finish();
}
