//! Golden `RunStats` digest for the DiAG machine.
//!
//! Every bundled workload at tiny scale runs on five DiAG shapes (the
//! default F4C32, F4C2, I4C2, and F4C32 with lane buffers every 4 and 16
//! PEs) at one and four hardware threads, and every SIMT-capable
//! workload runs the same grid again with its `simt_s`/`simt_e` regions
//! built in. Each run must verify. The statistics of all runs are hashed
//! over the run-stage cache's byte encoding into one digest, pinned
//! below: a host-side change to the engine that alters any modelled
//! figure fails here, and a matching digest means existing `run_key`
//! cache entries stay valid.

use diag_core::{Diag, MachineSpec};
use diag_pipeline::blob::encode_run_stats;
use diag_pipeline::StableHasher;
use diag_sim::{Machine, RunStats};
use diag_workloads::{Params, WorkloadSpec};

/// The pinned digest. Change it only together with a deliberate change
/// to the timing model, and say so in the change log.
const GOLDEN: &str = "859928fd5af7700c";

const MACHINES: [&str; 5] = [
    "diag",
    "diag:f4c2",
    "diag:i4c2",
    "diag+lane_buffer_interval=4",
    "diag+lane_buffer_interval=16",
];

const THREADS: [usize; 2] = [1, 4];

/// One grid point: workload, machine spec string, build parameters.
type Point = (WorkloadSpec, &'static str, Params);

fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for simt in [false, true] {
        for w in diag_workloads::all() {
            if simt && !w.simt_capable {
                continue;
            }
            for machine in MACHINES {
                for threads in THREADS {
                    let params = Params::tiny().with_threads(threads).with_simt(simt);
                    points.push((w, machine, params));
                }
            }
        }
    }
    points
}

fn run_point((w, machine, params): &Point) -> RunStats {
    let label = format!(
        "{} on {machine} x{} simt={}",
        w.name, params.threads, params.simt
    );
    let MachineSpec::Diag(config) = MachineSpec::parse(machine).expect("machine spec") else {
        panic!("{machine} is not a DiAG spec");
    };
    let built = w
        .build(params)
        .unwrap_or_else(|e| panic!("{label}: build: {e}"));
    let mut diag = Diag::new(config);
    let stats = diag
        .run(&built.program, params.threads)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    (built.verify)(&diag).unwrap_or_else(|e| panic!("{label}: verify: {e}"));
    stats
}

#[test]
fn diag_runstats_match_the_golden_digest() {
    let points = grid();
    // Two workers split the grid; results are hashed in grid order.
    let workers = 2;
    let mut stats: Vec<Option<RunStats>> = vec![None; points.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                let points = &points;
                s.spawn(move || {
                    (k..points.len())
                        .step_by(workers)
                        .map(|i| (i, run_point(&points[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, st) in h.join().expect("worker panicked") {
                stats[i] = Some(st);
            }
        }
    });
    let mut h = StableHasher::new();
    for st in &stats {
        h.write_bytes(&encode_run_stats(st.as_ref().expect("every point ran")));
    }
    let digest = format!("{:016x}", h.finish());
    assert_eq!(
        digest,
        GOLDEN,
        "DiAG RunStats digest over {} runs changed",
        points.len()
    );
}
