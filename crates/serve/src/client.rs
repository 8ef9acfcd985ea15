//! Minimal scripted client: connect, send request lines, collect
//! response lines. What the `ntc-serve request` subcommand, the CI
//! gate's concurrent clients, and the integration tests all drive.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Send one request line and return the one response line (without the
/// trailing newline).
///
/// # Errors
///
/// Propagates connect/write/read failures; an empty response (server
/// closed without answering) maps to `UnexpectedEof`.
pub fn roundtrip(socket: &Path, request_line: &str) -> std::io::Result<String> {
    let responses = roundtrip_many(socket, std::slice::from_ref(&request_line))?;
    responses
        .into_iter()
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no response"))
}

/// Send several request lines over one connection and return the
/// response line for each, in order.
///
/// # Errors
///
/// Propagates connect/write/read failures; a short response set
/// (server closed early) maps to `UnexpectedEof`.
pub fn roundtrip_many<S: AsRef<str>>(
    socket: &Path,
    requests: &[S],
) -> std::io::Result<Vec<String>> {
    let mut writer = UnixStream::connect(socket)?;
    let mut reader = BufReader::new(writer.try_clone()?);
    let mut out = Vec::with_capacity(requests.len());
    for req in requests {
        writer.write_all(req.as_ref().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed before answering",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        out.push(line);
    }
    Ok(out)
}
