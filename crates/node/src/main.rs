//! The `fnp-node` binary: read events line by line, print effect lines.
//!
//! See the crate docs ([`fnp_node`]) for the wire protocol. Framing rules:
//! one JSON object per line, output flushed after every input event (a
//! harness may block on our output before sending the next event), blank
//! lines ignored, EOF treated like `shutdown` without the `done`
//! acknowledgement. Malformed input — including a line longer than
//! [`MAX_LINE_BYTES`] — is a fatal protocol error: the message goes to
//! stderr and the process exits with status 1, so a broken harness fails
//! loudly instead of deadlocking.

use fnp_node::runtime::Disposition;
use fnp_node::{wire, NodeRuntime};
use std::io::{BufRead, Read, Write};
use std::process::ExitCode;

/// Longest input line accepted, in bytes, newline excluded. The largest
/// legitimate event (an `init` line listing a node's neighbours) is a few
/// kilobytes; the cap keeps a peer that never sends a newline from growing
/// the line buffer without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads the next line of `input` into `buf`, reading at most
/// [`MAX_LINE_BYTES`] plus the newline. Returns `Ok(None)` at EOF and the
/// line without its `\n` or `\r\n` terminator otherwise.
fn read_line<'a>(
    input: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> Result<Option<&'a str>, String> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    input
        .take(limit)
        .read_until(b'\n', buf)
        .map_err(|error| format!("stdin read failed: {error}"))?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        return Err(format!("input line longer than {MAX_LINE_BYTES} bytes"));
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|error| format!("stdin read failed: {error}"))
}

fn main() -> ExitCode {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut output = stdout.lock();
    let mut runtime = NodeRuntime::new();
    let mut input = stdin.lock();
    let mut buf = Vec::new();
    let mut lines = Vec::new();
    loop {
        let line = match read_line(&mut input, &mut buf) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(error) => {
                eprintln!("fnp-node: {error}");
                return ExitCode::FAILURE;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let event = match wire::parse_event(line) {
            Ok(event) => event,
            Err(error) => {
                eprintln!("fnp-node: {error}");
                return ExitCode::FAILURE;
            }
        };
        lines.clear();
        let disposition = match runtime.handle(event, &mut lines) {
            Ok(disposition) => disposition,
            Err(error) => {
                eprintln!("fnp-node: {error}");
                return ExitCode::FAILURE;
            }
        };
        for out_line in &lines {
            if writeln!(output, "{out_line}").is_err() {
                return ExitCode::FAILURE;
            }
        }
        if output.flush().is_err() {
            return ExitCode::FAILURE;
        }
        if disposition == Disposition::Exit {
            return ExitCode::SUCCESS;
        }
    }
    ExitCode::SUCCESS
}
