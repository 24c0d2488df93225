//! Runs every table and figure bin in sequence, passing `--full` on to
//! each; every bin writes its JSON under `target/experiments/`.
#![forbid(unsafe_code)]

use std::process::Command;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let bins = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "ablations",
    ];
    for bin in bins {
        println!("\n======================== {bin} ========================");
        let mut cmd = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin));
        if full {
            cmd.arg("--full");
        }
        let status = cmd.status().expect("run experiment binary");
        assert!(status.success(), "{bin} failed");
    }
}
