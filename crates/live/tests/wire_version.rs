//! One wire version, enforced on live sockets: a peer whose frames carry
//! any version byte other than [`PROTO_VERSION`] is rejected loudly — the
//! connection is dropped and counted as lost — never half-registered or
//! half-woven.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use pivot_core::{Frontend, ProcessInfo};
use pivot_live::bus::{ConnStatus, LiveAgent, ReconnectPolicy, TcpBusServer};
use pivot_live::frame::{read_frame, write_frame};
use pivot_live::proto::{decode_message, encode_message, Message, PROTO_VERSION};
use pivot_query::CompiledCode;

fn info(procid: u64) -> ProcessInfo {
    ProcessInfo {
        host: "skew-host".into(),
        procid,
        procname: "skew".into(),
    }
}

/// Encodes `msg` and restamps its version byte.
fn encode_at(msg: &Message, version: u8) -> Vec<u8> {
    let mut payload = encode_message(msg);
    payload[0] = version;
    payload
}

/// Polls until `f()` holds or the deadline passes.
fn wait_until(mut f: impl FnMut() -> bool) -> bool {
    for _ in 0..600 {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn hello_from_previous_version_is_never_registered() {
    let server = TcpBusServer::start().expect("server starts");
    let mut conn = TcpStream::connect(server.addr()).expect("connects");
    write_frame(
        &mut conn,
        &encode_at(&Message::Hello(info(1)), PROTO_VERSION - 1),
    )
    .expect("hello writes");

    assert!(
        wait_until(|| server.peers_lost() == 1),
        "the mismatched peer is dropped and counted as lost"
    );
    assert_eq!(server.agent_count(), 0);
    assert!(server.agents().is_empty(), "never registered");
    // No Sync answers a rejected hello: the server just closes.
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    assert!(read_frame(&mut conn).is_err());
}

/// One compiled query to carry in a `Sync`.
fn query() -> Arc<CompiledCode> {
    let mut fe = Frontend::new();
    fe.define("Skew.event", ["k"]);
    let handle = fe
        .install("From e In Skew.event GroupBy e.k Select e.k, COUNT")
        .expect("query installs");
    fe.code(&handle).expect("bytecode available")
}

/// Connects a reconnect-disabled agent to a raw listener, sends it a
/// one-query `Sync` stamped `version`, and returns the agent (with the
/// server's end of the connection) once it has either applied the sync or
/// left `Connected`.
fn agent_after_sync_at(code: &Arc<CompiledCode>, version: u8) -> (LiveAgent, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let agent = LiveAgent::connect_with(
        listener.local_addr().expect("addr"),
        info(2),
        Duration::from_secs(3600),
        ReconnectPolicy::disabled(),
    )
    .expect("agent connects");
    let (mut conn, _) = listener.accept().expect("agent connects");
    let hello = read_frame(&mut conn).expect("hello frame");
    assert!(matches!(decode_message(&hello), Ok(Message::Hello(_))));
    let sync = Message::Sync {
        epoch: 1,
        queries: vec![Arc::clone(code)],
        budgets: Vec::new(),
    };
    write_frame(&mut conn, &encode_at(&sync, version)).expect("sync writes");
    assert!(wait_until(|| {
        agent.uplink().epoch() == 1 || agent.uplink().status() != ConnStatus::Connected
    }));
    (agent, conn)
}

#[test]
fn sync_from_previous_version_weaves_nothing() {
    let code = query();

    // Control: the same frame at the one version weaves the query.
    let (agent, _conn) = agent_after_sync_at(&code, PROTO_VERSION);
    assert_eq!(agent.uplink().status(), ConnStatus::Connected);
    assert!(agent.agent().registry().has_query(code.id));
    agent.shutdown();

    // Stamped one version back, the frame is a protocol fault: the agent
    // drops the connection (reconnection is disabled, so it ends Lost)
    // and its registry stays empty.
    let (agent, _conn) = agent_after_sync_at(&code, PROTO_VERSION - 1);
    assert!(wait_until(|| agent.uplink().status() == ConnStatus::Lost));
    assert_eq!(agent.uplink().epoch(), 0);
    assert!(!agent.agent().registry().has_query(code.id));
    assert!(agent.agent().registry().is_idle());
}
