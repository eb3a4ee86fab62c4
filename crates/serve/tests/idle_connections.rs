//! The reactor's thread-scalability gate, alone in its own test binary:
//! it counts every OS thread in the process, so any other test running
//! beside it (profiling runs, client threads) would move the count.
//!
//! Everything runs in-process over real sockets; no external client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use muds_serve::{ServeConfig, Server, ServerState};

fn start_server(
    config: ServeConfig,
) -> (SocketAddr, Arc<ServerState>, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let state = server.state();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, state, handle)
}

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    // `Connection: close` so `read_to_end` terminates — the server
    // otherwise keeps the connection open for reuse.
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("response head");
    let head = std::str::from_utf8(&raw[..head_end]).expect("utf-8 head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next().unwrap().split(' ').nth(1).unwrap().parse().unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, raw[head_end + 4..].to_vec())
}

/// Counts this process's OS threads via /proc — the ground truth for
/// "connections cost file descriptors, not threads".
#[cfg(target_os = "linux")]
fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task").count()
}

/// The reactor's scalability gate: ≥ 1k concurrent idle keep-alive
/// connections are held with zero 5xx responses and an OS thread count
/// that does not grow with the connection count.
#[cfg(target_os = "linux")]
#[test]
fn a_thousand_idle_keep_alive_connections_cost_no_threads() {
    const CONNS: usize = 1000;
    let (addr, state, handle) = start_server(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_connections: CONNS + 64,
        ..ServeConfig::default()
    });

    // One request first so the reactor, handler pool, and scheduler
    // workers are all running before the baseline thread count is taken.
    let (status, _, _) = http(addr, "GET", "/healthz", "text/plain", b"");
    assert_eq!(status, 200);
    let threads_before = os_thread_count();
    let mut sockets = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let stream = TcpStream::connect(addr).expect("connect idle keep-alive socket");
        stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        sockets.push(stream);
    }
    // Wait until the reactor has admitted every socket (accept happens on
    // its own readiness ticks).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while (state.metrics.reactor_connections.get() as usize) < CONNS {
        assert!(std::time::Instant::now() < deadline, "reactor never admitted all sockets");
        std::thread::sleep(Duration::from_millis(20));
    }
    let threads_with_conns = os_thread_count();
    assert!(
        threads_with_conns <= threads_before + 2,
        "thread count must not scale with connections: {threads_before} before, \
         {threads_with_conns} with {CONNS} held open"
    );

    // Every sampled socket is alive and reusable: two requests per socket
    // over the same stream proves keep-alive reuse, not just acceptance.
    let read_response = |stream: &mut TcpStream| {
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        let (head_end, content_length) = loop {
            if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&raw[..pos]).expect("utf-8 head");
                let cl = head
                    .split("\r\n")
                    .find_map(|l| {
                        l.split_once(':').filter(|(n, _)| n.eq_ignore_ascii_case("content-length"))
                    })
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .expect("Content-Length header");
                break (pos, cl);
            }
            let n = stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "connection closed mid head");
            raw.extend_from_slice(&chunk[..n]);
        };
        while raw.len() < head_end + 4 + content_length {
            let n = stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid body");
            raw.extend_from_slice(&chunk[..n]);
        }
        let status: u16 = std::str::from_utf8(&raw[..head_end])
            .unwrap()
            .split(' ')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        status
    };
    for i in (0..CONNS).step_by(97) {
        let stream = &mut sockets[i];
        for _ in 0..2 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            assert_eq!(read_response(stream), 200, "socket {i} must stay usable");
        }
    }
    assert_eq!(state.metrics.responses_5xx.get(), 0, "zero 5xx under 1k idle connections");

    drop(sockets);
    state.request_shutdown();
    handle.join().unwrap();
}
