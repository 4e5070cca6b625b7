//! End-to-end smoke test: five `fnp-node` processes flood a ring.
//!
//! The test is the harness the crate docs describe: it spawns one real
//! `fnp-node` process per overlay node (no framework, plain
//! `std::process`), plays router with a FIFO one-tick link latency, and
//! routes every `send` line from one child's stdout into a `deliver` line
//! on the target child's stdin. The broadcast must reach all five nodes
//! (full coverage), every process must acknowledge `shutdown` with a
//! `done` line, and every process must exit with status 0.

use fnp_bench::json::Json;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

const N: usize = 5;

struct NodeProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl NodeProc {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fnp-node"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fnp-node");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Self {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("write to fnp-node stdin");
    }

    fn read_line(&mut self) -> Json {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .expect("read fnp-node stdout");
        assert!(n > 0, "fnp-node closed stdout unexpectedly");
        Json::parse(line.trim_end()).expect("fnp-node emitted invalid JSON")
    }
}

fn kind(line: &Json) -> String {
    line.get("type").and_then(Json::as_str).unwrap().to_string()
}

#[test]
fn five_node_ring_flood_reaches_everyone() {
    let mut nodes: Vec<NodeProc> = (0..N).map(|_| NodeProc::spawn()).collect();

    // Init: ring topology, neighbours (i±1) mod N.
    for (index, node) in nodes.iter_mut().enumerate() {
        let (left, right) = ((index + N - 1) % N, (index + 1) % N);
        node.send(&format!(
            r#"{{"type":"init","node":{index},"node_count":{N},"neighbors":[{left},{right}],"seed":{index}}}"#
        ));
        let ack = node.read_line();
        assert_eq!(kind(&ack), "init_ok");
        assert_eq!(ack.get("node").and_then(Json::as_u64), Some(index as u64));
    }

    // The router: a FIFO queue of in-flight messages with one tick of link
    // latency. Flood-and-prune responds to a *first* receipt with exactly
    // `delivered` + one `send` per non-excluded neighbour, and to a
    // duplicate with silence, so the harness knows how many lines to
    // expect for every event it injects.
    let mut in_flight: VecDeque<(u64, usize, usize, u64)> = VecDeque::new(); // (at, to, from, tx)
    let mut seen = [false; N];
    let mut delivered_at: Vec<Option<u64>> = vec![None; N];

    // Kick off the broadcast at node 0.
    nodes[0].send(r#"{"type":"start","at":0,"tx_id":42}"#);
    seen[0] = true;
    let mut expect = 3; // delivered + 2 sends
    let mut current = (0usize, 0u64); // (node, event time)
    loop {
        for _ in 0..expect {
            let line = nodes[current.0].read_line();
            match kind(&line).as_str() {
                "delivered" => {
                    assert_eq!(delivered_at[current.0], None, "double delivery");
                    delivered_at[current.0] = line.get("at").and_then(Json::as_u64);
                }
                "send" => {
                    let to = line.get("to").and_then(Json::as_u64).unwrap() as usize;
                    let tx = line
                        .get("message")
                        .and_then(|m| m.get("tx_id"))
                        .and_then(Json::as_u64)
                        .unwrap();
                    in_flight.push_back((current.1 + 1, to, current.0, tx));
                }
                other => panic!("unexpected output line type {other:?}"),
            }
        }
        let Some((at, to, from, tx)) = in_flight.pop_front() else {
            break;
        };
        nodes[to].send(&format!(
            r#"{{"type":"deliver","at":{at},"from":{from},"message":{{"tx_id":{tx}}}}}"#
        ));
        expect = if seen[to] { 0 } else { 2 }; // delivered + 1 send, or silence
        seen[to] = true;
        current = (to, at);
    }

    // Full coverage, with first deliveries in ring order (1 tick per hop).
    assert!(delivered_at.iter().all(Option::is_some), "{delivered_at:?}");
    assert_eq!(delivered_at[0], Some(0));
    assert_eq!(delivered_at[1], Some(1));
    assert_eq!(delivered_at[4], Some(1));
    assert_eq!(delivered_at[2], Some(2));
    assert_eq!(delivered_at[3], Some(2));

    // Clean shutdown: every node acknowledges and exits 0.
    for (index, node) in nodes.iter_mut().enumerate() {
        node.send(r#"{"type":"shutdown"}"#);
        let done = node.read_line();
        assert_eq!(kind(&done), "done");
        assert_eq!(done.get("node").and_then(Json::as_u64), Some(index as u64));
        assert_eq!(done.get("delivered"), Some(&Json::Bool(true)));
        let status = node.child.wait().expect("wait for fnp-node");
        assert!(status.success(), "node {index} exited with {status}");
    }
}

#[test]
fn killing_a_node_mid_broadcast_leaves_survivors_consistent() {
    // Churn soak: the same five-process ring, but one process is killed
    // mid-broadcast. The router drops every in-flight line addressed to
    // the dead node (a closed pipe loses its traffic) and keeps exact
    // accounting: every `send` a survivor emits is either routed to a live
    // node or dropped on the dead one, nothing disappears and nothing is
    // duplicated. The ring 0–1–2–3–4–0 minus node 2 is still connected, so
    // the broadcast must reach every survivor, and every survivor must
    // still shut down cleanly with exit status 0.
    const DEAD: usize = 2;
    let mut nodes: Vec<NodeProc> = (0..N).map(|_| NodeProc::spawn()).collect();

    for (index, node) in nodes.iter_mut().enumerate() {
        let (left, right) = ((index + N - 1) % N, (index + 1) % N);
        node.send(&format!(
            r#"{{"type":"init","node":{index},"node_count":{N},"neighbors":[{left},{right}],"seed":{index}}}"#
        ));
        let ack = node.read_line();
        assert_eq!(kind(&ack), "init_ok");
    }

    let mut in_flight: VecDeque<(u64, usize, usize, u64)> = VecDeque::new(); // (at, to, from, tx)
    let mut seen = [false; N];
    let mut delivered_at: Vec<Option<u64>> = vec![None; N];
    let mut sends_emitted = 0usize;
    let mut routed = 0usize;
    let mut dropped = 0usize;

    nodes[0].send(r#"{"type":"start","at":0,"tx_id":42}"#);
    seen[0] = true;
    let mut expect = 3; // delivered + 2 sends
    let mut current = (0usize, 0u64); // (node, event time)
    let mut killed = false;
    loop {
        for _ in 0..expect {
            let line = nodes[current.0].read_line();
            match kind(&line).as_str() {
                "delivered" => {
                    assert_eq!(delivered_at[current.0], None, "double delivery");
                    delivered_at[current.0] = line.get("at").and_then(Json::as_u64);
                }
                "send" => {
                    let to = line.get("to").and_then(Json::as_u64).unwrap() as usize;
                    let tx = line
                        .get("message")
                        .and_then(|m| m.get("tx_id"))
                        .and_then(Json::as_u64)
                        .unwrap();
                    sends_emitted += 1;
                    in_flight.push_back((current.1 + 1, to, current.0, tx));
                }
                other => panic!("unexpected output line type {other:?}"),
            }
        }
        // Kill mid-broadcast: the origin's sends are in flight but nothing
        // has been delivered to the victim yet.
        if !killed {
            killed = true;
            nodes[DEAD].child.kill().expect("kill fnp-node");
            let status = nodes[DEAD].child.wait().expect("wait for killed fnp-node");
            assert!(!status.success(), "a killed node must not exit cleanly");
        }
        let Some((at, to, from, tx)) = in_flight.pop_front() else {
            break;
        };
        if to == DEAD {
            // The pipe is gone; the line is dropped, not rerouted.
            dropped += 1;
            expect = 0;
            continue;
        }
        nodes[to].send(&format!(
            r#"{{"type":"deliver","at":{at},"from":{from},"message":{{"tx_id":{tx}}}}}"#
        ));
        routed += 1;
        expect = if seen[to] { 0 } else { 2 }; // delivered + 1 send, or silence
        seen[to] = true;
        current = (to, at);
    }

    // Every survivor delivered; the dead node never did.
    for (index, at) in delivered_at.iter().enumerate() {
        if index == DEAD {
            assert_eq!(*at, None, "the killed node cannot deliver");
        } else {
            assert!(at.is_some(), "survivor {index} never delivered");
        }
    }
    // With node 2 dead the wave goes 0 → {1, 4}, then 4 → 3.
    assert_eq!(delivered_at[0], Some(0));
    assert_eq!(delivered_at[1], Some(1));
    assert_eq!(delivered_at[4], Some(1));
    assert_eq!(delivered_at[3], Some(2));

    // Line accounting balances: every emitted send was either routed to a
    // live node or dropped on the dead one. Both of the dead node's ring
    // neighbours (1 and 3) tried to reach it exactly once.
    assert_eq!(sends_emitted, routed + dropped);
    assert_eq!(
        dropped, 2,
        "both neighbours of the dead node send into the gap"
    );
    assert!(
        in_flight.is_empty(),
        "no in-flight lines may survive the loop"
    );

    // Survivors still shut down cleanly: `done` is the very next line on
    // each survivor's stdout (no stray output buffered behind it) and the
    // exit status is 0.
    for (index, node) in nodes.iter_mut().enumerate() {
        if index == DEAD {
            continue;
        }
        node.send(r#"{"type":"shutdown"}"#);
        let done = node.read_line();
        assert_eq!(kind(&done), "done");
        assert_eq!(done.get("node").and_then(Json::as_u64), Some(index as u64));
        assert_eq!(done.get("delivered"), Some(&Json::Bool(true)));
        let status = node.child.wait().expect("wait for fnp-node");
        assert!(status.success(), "survivor {index} exited with {status}");
    }
}

#[test]
fn malformed_input_fails_loudly() {
    let mut node = NodeProc::spawn();
    node.send("this is not json");
    let status = node.child.wait().expect("wait for fnp-node");
    assert!(!status.success(), "malformed input must not exit 0");
}

#[test]
fn over_long_input_line_fails_loudly() {
    let mut node = NodeProc::spawn();
    node.send(r#"{"type":"init","node":0,"node_count":2,"neighbors":[1],"seed":0}"#);
    assert_eq!(kind(&node.read_line()), "init_ok");
    // A blank line twice the 1 MiB cap, then a valid shutdown. The node
    // stops reading at the cap and exits, so the rest of the write may
    // hit a closed pipe.
    let _ = node.stdin.write_all(&vec![b' '; 2 << 20]);
    let _ = node.stdin.write_all(b"\n{\"type\":\"shutdown\"}\n");
    let status = node.child.wait().expect("wait for fnp-node");
    assert!(!status.success(), "an over-long line must not exit 0");
}
