//! A live o4a-scope session, end to end: a 2-worker spawned fleet runs a
//! small campaign with the observatory on, while a real `dist_top`
//! process polls `GET /status` and renders the fleet view into this
//! terminal. When the campaign finishes, the coordinator's own summary
//! and the fleet-merged Chrome trace path are printed.
//!
//! Build the fleet binaries first, then run the example:
//!
//! ```text
//! cargo build -p o4a-bench --bins
//! cargo run -p o4a-bench --example scope_campaign
//! ```

use o4a_core::CampaignConfig;
use o4a_dist::{run_distributed, DistConfig};
use o4a_obs::ObsConfig;
use std::path::PathBuf;
use std::process::Command;

/// Sibling binary next to this example (`target/<profile>/<name>`).
fn bin(name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("current exe");
    path.pop(); // scope_campaign
    path.pop(); // examples/
    path.push(name);
    if !path.exists() {
        eprintln!(
            "scope_campaign: {} not built — run `cargo build -p o4a-bench --bins` first",
            path.display()
        );
        std::process::exit(2);
    }
    path
}

fn main() {
    let scope_addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").to_string()
    };
    let journal_dir =
        std::env::temp_dir().join(format!("o4a-scope-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);

    // Coordinator obs on (in-memory) so the fleet trace gets its lane
    // and /metrics has counters; the workers get the same via env.
    o4a_obs::install(ObsConfig {
        trace: true,
        metrics: true,
        dir: None,
        ..ObsConfig::default()
    });

    let config = CampaignConfig {
        virtual_hours: 2,
        time_scale: 50_000,
        max_cases: 120,
        ..CampaignConfig::default()
    };
    let dist = DistConfig::new(
        vec![
            bin("dist_worker").display().to_string(),
            "--slow-ms".into(),
            "60".into(), // drag the campaign out so the live view has frames to show
        ],
        &journal_dir,
    )
    .with_workers(2)
    .with_scope(scope_addr.clone())
    .with_env("O4A_TRACE", journal_dir.join("obs").display().to_string())
    .with_env("O4A_METRICS", journal_dir.join("obs").display().to_string());

    let mut top = Command::new(bin("dist_top"))
        .arg("--connect")
        .arg(&scope_addr)
        .arg("--interval-ms")
        .arg("300")
        .spawn()
        .expect("spawn dist_top");

    let report = run_distributed(&config, 4, &dist).expect("campaign");

    // dist_top notices the coordinator is gone and exits on its own.
    top.wait().expect("dist_top exit");
    o4a_obs::uninstall();

    println!("=== campaign over: the coordinator's own summary ===");
    print!("{}", o4a_bench::render_dist_stats(&report.stats));
    println!(
        "{} cases, {} findings — open the fleet trace in a Chrome `about:tracing` tab",
        report.result.stats.cases,
        report.result.findings.len()
    );
    // Keep the journal dir: it holds the fleet trace named above.
}
