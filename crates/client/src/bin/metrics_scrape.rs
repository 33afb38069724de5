//! `metrics_scrape` — connect to a running `kvmatch-server`, request the
//! metrics text exposition over the wire (`Request::MetricsText`), and
//! print it to stdout.
//!
//! Usage: `metrics_scrape [addr]` (default `127.0.0.1:7878`). Exits
//! non-zero when the server is unreachable or answers with an error —
//! the CI `benchmark` job pipes the output through format checks.

use std::time::Duration;

use kvmatch_client::Client;

fn main() {
    let addr = std::env::args().nth(1).unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let client = match Client::connect_retry(&addr, 40, Duration::from_millis(250)) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("FAIL: cannot connect to {addr}: {err}");
            std::process::exit(1);
        }
    };
    match client.metrics_text() {
        Ok(text) => print!("{text}"),
        Err(err) => {
            eprintln!("FAIL: metrics request to {addr} failed: {err}");
            std::process::exit(1);
        }
    }
}
