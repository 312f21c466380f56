//! The daemon's thread census, in a test binary of its own so that no
//! other test's threads are counted: a serving daemon runs its engine
//! workers and the one thread that calls `serve`, whatever its
//! connection count. Accepting connections, shutting down and expiring
//! run deadlines all wait in that thread's reactor.

use oranges_campaign::service::{CampaignService, ServiceClient, ServiceConfig};
use oranges_harness::transport::{Endpoint, TcpTransport};

/// This process's thread count (Linux `/proc/self/status`), if readable.
fn threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

#[test]
fn a_serving_daemon_runs_its_workers_and_one_thread_more() {
    const WORKERS: usize = 2;
    let Some(before) = threads() else {
        eprintln!("no /proc/self/status here; the thread census is skipped");
        return;
    };
    let listen: Endpoint = "tcp:127.0.0.1:0".parse().expect("static endpoint");
    let config = ServiceConfig::new(listen).with_workers(WORKERS);
    let service = CampaignService::<TcpTransport>::bind(config).expect("bind service");
    let endpoint = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve());
    let mut clients: Vec<ServiceClient<TcpTransport>> = (0..3)
        .map(|_| ServiceClient::connect(&endpoint).expect("connect"))
        .collect();
    for client in &mut clients {
        client.ping().expect("ping");
    }
    let serving = threads().expect("the census was read before");
    assert_eq!(
        serving,
        before + WORKERS as u64 + 1,
        "{WORKERS} workers and the thread serving 3 connections, no more"
    );
    clients[0].shutdown().expect("shutdown");
    drop(clients);
    daemon.join().expect("daemon thread").expect("serve");
}
