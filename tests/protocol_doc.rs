//! PROTOCOL § 10, replayed: the recorded client lines go to an
//! in-process daemon on `tcp:127.0.0.1:0`, configured as the recording
//! daemon was (4 workers, no cache file), and every answer must equal the
//! recorded server line byte for byte. Only the members whose values
//! change from run to run are masked: `wall_time_s`, `wall_s` and
//! `reactor_notify_wakeups`. The recorded `unit` line elides four of its
//! six sets, so it is checked by its text before the `…` and by its
//! closing `]}}`.

#![cfg(unix)]

use oranges_campaign::service::{CampaignService, ServiceConfig};
use oranges_harness::transport::{Endpoint, TcpTransport, Transport};
use std::io::{BufRead, BufReader, Read, Write};

const PROTOCOL: &str = include_str!("../docs/PROTOCOL.md");

/// The members whose values vary between runs.
const MASKED: [&str; 3] = ["wall_time_s", "wall_s", "reactor_notify_wakeups"];

/// The lines of the first ```text block after `heading` in § 10.
fn recorded(heading: &str) -> Vec<&'static str> {
    let section = &PROTOCOL[PROTOCOL.find("## 10.").expect("§ 10")..];
    let section = &section[..section.find("## 11.").expect("§ 11 follows")];
    let block = &section[section.find(heading).expect("a recorded block")..];
    let block = &block[block.find("```text\n").expect("a text block") + "```text\n".len()..];
    block[..block.find("```").expect("the block closes")]
        .lines()
        .collect()
}

/// `line` with the value of every [`MASKED`] member replaced by `_`.
fn mask(line: &str) -> String {
    let mut line = line.to_string();
    for name in MASKED {
        let key = format!("\"{name}\":");
        if let Some(at) = line.find(&key) {
            let start = at + key.len();
            let end = start + line[start..].find([',', '}']).expect("the value ends");
            line.replace_range(start..end, "_");
        }
    }
    line
}

#[test]
fn the_recorded_session_replays_byte_for_byte() {
    let client = recorded("Client → server:");
    let server = recorded("Server → client:");
    assert_eq!((client.len(), server.len()), (6, 7), "§ 10 as recorded");

    let listen: Endpoint = "tcp:127.0.0.1:0".parse().expect("an endpoint");
    let service = CampaignService::<TcpTransport>::bind(ServiceConfig::new(listen)).expect("bind");
    let endpoint = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve());

    let stream = TcpTransport::connect(&endpoint).expect("connect");
    let mut writer = stream.try_clone().expect("clone the connection");
    let requests: String = client.iter().map(|line| format!("{line}\n")).collect();
    writer
        .write_all(requests.as_bytes())
        .expect("pipeline the requests");
    let mut reader = BufReader::new(stream);
    for expected in server {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read an answer");
        let (got, expected) = (mask(line.trim_end_matches('\n')), mask(expected));
        match expected.split_once('…') {
            Some((prefix, _)) => {
                assert!(
                    got.starts_with(prefix),
                    "{got}\ndoes not start with\n{prefix}"
                );
                assert!(got.ends_with("]}}"), "{got}");
            }
            None => assert_eq!(got, expected),
        }
    }
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("read to the drain's EOF");
    assert_eq!(rest, "", "nothing follows bye");
    daemon
        .join()
        .expect("the daemon thread")
        .expect("a clean drain");
}
