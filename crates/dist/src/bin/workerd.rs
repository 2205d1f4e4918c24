//! `bpart-workerd`: one supervised BSP worker process.
//!
//! Started by the driver with `--connect ADDR --worker-id N --key K
//! --heartbeat-ms MS`; not meant to be launched by hand.

use bpart_dist::{run_worker, WorkerConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = match WorkerConfig::from_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("bpart-workerd: {e}");
            eprintln!(
                "usage: bpart-workerd --connect ADDR --worker-id N --key K [--heartbeat-ms MS]"
            );
            return ExitCode::from(2);
        }
    };
    let id = cfg.worker_id;
    match run_worker(cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bpart-workerd[{id}]: {e}");
            ExitCode::FAILURE
        }
    }
}
