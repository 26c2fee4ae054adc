//! The standalone relay process.
//!
//! ```text
//! pivot-relay --upstream 127.0.0.1:7000 [--listen 127.0.0.1:0]
//!             [--host rack-0] [--procid 1] [--flush-ms 200]
//! ```
//!
//! Starts a [`pivot_relay::live::RelayServer`] between downstream agents
//! (which connect to the printed listen address exactly as they would to
//! a frontend) and the upstream bus at `--upstream`, then runs until the
//! upstream link closes orderly or is lost for good.

use std::process::exit;
use std::time::Duration;

use pivot_core::ProcessInfo;
use pivot_live::bus::ConnStatus;
use pivot_relay::live::RelayServer;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(upstream) = flag(&args, "--upstream") else {
        eprintln!(
            "usage: pivot-relay --upstream HOST:PORT [--listen HOST:PORT] \
             [--host NAME] [--procid N] [--flush-ms MS]"
        );
        exit(2);
    };
    let upstream = match upstream.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pivot-relay: bad --upstream address {upstream:?}: {e}");
            exit(2);
        }
    };
    let listen = flag(&args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let host = flag(&args, "--host").unwrap_or_else(|| "relay".to_owned());
    let procid = flag(&args, "--procid")
        .map(|s| s.parse().expect("--procid takes a number"))
        .unwrap_or(0);
    let flush_ms = flag(&args, "--flush-ms")
        .map(|s| s.parse().expect("--flush-ms takes a number"))
        .unwrap_or(200);

    let info = ProcessInfo {
        host,
        procid,
        procname: "pivot-relay".to_owned(),
    };
    let relay = match RelayServer::bind(
        &listen,
        upstream,
        info,
        Duration::from_millis(flush_ms),
        pivot_live::ReconnectPolicy::new(procid),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pivot-relay: failed to start: {e}");
            exit(1);
        }
    };
    // The line scripts parse to learn the ephemeral downstream port.
    println!("pivot-relay listening on {}", relay.addr());

    loop {
        std::thread::sleep(Duration::from_millis(100));
        match relay.uplink().status() {
            ConnStatus::Closed => {
                relay.shutdown();
                return;
            }
            ConnStatus::Lost => {
                let s = relay.stats();
                eprintln!(
                    "pivot-relay: upstream lost for good \
                     (in={} out={} tuples_in={} tuples_out={})",
                    s.reports_in, s.reports_out, s.tuples_in, s.tuples_out
                );
                relay.shutdown();
                exit(1);
            }
            _ => {}
        }
    }
}
