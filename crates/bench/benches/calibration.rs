//! Benches for the Table 2 calibration campaign (experiment E1 in
//! DESIGN.md).

use contention_bench::harness::Harness;
use std::hint::black_box;
use tc27x_sim::{CoreId, Region, System};
use workloads::micro;

fn main() {
    let mut h = Harness::new("calibration");
    h.sample_size(10);

    h.bench("full_table2_campaign", || {
        black_box(mbta::calibrate(&mbta::ExecEngine::sequential()).unwrap())
    });

    h.bench("single_probe_code_stream", || {
        let mut sys = System::tc277();
        sys.load(CoreId(1), &micro::code_stream(Region::Pflash0, 320))
            .unwrap();
        black_box(sys.run().unwrap().counters(CoreId(1)).pmem_stall)
    });

    h.finish();
}
