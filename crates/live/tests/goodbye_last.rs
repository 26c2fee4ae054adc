//! `Goodbye` is the last frame an uplink ever writes. The server stops
//! reading a peer at its `Goodbye`, so a report that follows one is lost
//! without showing up in any loss term. Here a second thread keeps
//! emitting and flushing while the agent shuts down, and the raw
//! [`TcpListener`] on the other end checks every frame up to EOF.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pivot_baggage::Baggage;
use pivot_core::{Frontend, ProcessInfo};
use pivot_live::bus::{LiveAgent, ReconnectPolicy};
use pivot_live::frame::{read_frame, write_frame};
use pivot_live::proto::{decode_message, encode_message, Message};
use pivot_model::Value;

const ROUNDS: u64 = 60;

#[test]
fn no_frame_follows_goodbye_under_concurrent_flushes() {
    // Two queries, so one flush carries two per-query report frames.
    let mut fe = Frontend::new();
    fe.define("Probe.event", ["k", "v"]);
    let queries: Vec<_> = [
        "From e In Probe.event GroupBy e.k Select e.k, COUNT",
        "From e In Probe.event Select e.k, e.v",
    ]
    .iter()
    .map(|q| {
        let handle = fe.install(q).expect("installs");
        fe.code(&handle).expect("bytecode")
    })
    .collect();
    let sync = encode_message(&Message::Sync {
        epoch: 1,
        queries,
        budgets: Vec::new(),
    });

    let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let addr = listener.local_addr().expect("addr");
    for round in 0..ROUNDS {
        let agent = LiveAgent::connect_with(
            addr,
            ProcessInfo {
                host: "bye-host".into(),
                procid: round,
                procname: "bye".into(),
            },
            Duration::from_millis(1), // the flusher ticks constantly
            ReconnectPolicy::disabled(),
        )
        .expect("agent connects");
        let (mut conn, _) = listener.accept().expect("accepts");
        write_frame(&mut conn, &sync).expect("sync writes");
        assert!(agent.uplink().wait_for_epoch(1, Duration::from_secs(10)));

        // The server side reads every frame until the agent closes.
        let server = std::thread::spawn(move || {
            let mut frames = Vec::new();
            while let Ok(payload) = read_frame(&mut conn) {
                frames.push(decode_message(&payload).expect("frame decodes"));
            }
            frames
        });

        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let mut bag = Baggage::new();
                    agent.agent().invoke(
                        "Probe.event",
                        &mut bag,
                        i,
                        &[("k", Value::U64(i % 4)), ("v", Value::U64(i))],
                    );
                    if i.is_multiple_of(8) {
                        agent.flush_now();
                    }
                    i += 1;
                }
            });
            std::thread::sleep(Duration::from_millis(5 + round % 5));
            agent.shutdown();
            // Keep emitting and flushing for a while after the close.
            std::thread::sleep(Duration::from_millis(5));
            stop.store(true, Ordering::SeqCst);
        });

        let frames = server.join().expect("server thread");
        let byes: Vec<usize> = frames
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m, Message::Goodbye))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            byes,
            vec![frames.len() - 1],
            "round {round}: exactly one Goodbye, and it is the last of {} frames",
            frames.len()
        );
        assert!(
            frames.iter().any(|m| matches!(m, Message::Report(_))),
            "round {round}: reports flowed before the close"
        );
    }
}
