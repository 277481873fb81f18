//! The client side of the wire: request bytes out, framed responses in.
//!
//! The response reader is written here rather than borrowed from the
//! front door's `frame` module, so a framing defect in the program
//! cannot hide from the check that is meant to catch it. It accepts
//! `Content-Length` and chunked bodies only (the front door frames every
//! response it sends), and rejects anything else as mis-framed.

/// Bytes of body kept at each end of a response whose body is not kept
/// whole.
const EDGE: usize = 4096;

/// Serializes one keep-alive GET.
pub fn get(path: &str, user_agent: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: site.example\r\nUser-Agent: {user_agent}\r\n\r\n")
        .into_bytes()
}

/// One framed response as the client saw it.
#[derive(Debug, Default, Clone)]
pub struct Parsed {
    /// Status code.
    pub status: u16,
    /// `Content-Type`, lowercased, parameters stripped.
    pub content_type: String,
    /// Whether the body came chunked.
    pub chunked: bool,
    /// Decoded body length.
    pub body_len: usize,
    /// The whole body for text types (HTML and scripts), else its first
    /// [`EDGE`] bytes.
    pub head: Vec<u8>,
    /// The body's last bytes: at least its last [`EDGE`] (the whole body
    /// when shorter) and at most twice that, depending on how the body
    /// arrived; read them through [`Parsed::last`].
    pub tail: Vec<u8>,
}

impl Parsed {
    /// The body as text, when it was kept whole.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.head).unwrap_or("")
    }

    fn keeps_whole(&self) -> bool {
        self.content_type.starts_with("text/") || self.content_type.contains("javascript")
    }

    fn append(&mut self, data: &[u8]) {
        self.body_len += data.len();
        if self.keeps_whole() {
            self.head.extend_from_slice(data);
        } else if self.head.len() < EDGE {
            let take = (EDGE - self.head.len()).min(data.len());
            self.head.extend_from_slice(&data[..take]);
        }
        if data.len() >= EDGE {
            self.tail.clear();
            self.tail.extend_from_slice(&data[data.len() - EDGE..]);
        } else {
            self.tail.extend_from_slice(data);
            if self.tail.len() > 2 * EDGE {
                self.tail.drain(..self.tail.len() - EDGE);
            }
        }
    }

    /// The last `n` body bytes (fewer when the body is shorter).
    pub fn last(&self, n: usize) -> &[u8] {
        &self.tail[self.tail.len().saturating_sub(n)..]
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Head,
    Length(usize),
    ChunkSize,
    ChunkData(usize),
    ChunkEnd,
    Trailer,
}

/// Incremental reader of a stream of responses on one connection.
#[derive(Debug)]
pub struct ResponseReader {
    buf: Vec<u8>,
    pos: usize,
    state: State,
    cur: Parsed,
}

impl Default for ResponseReader {
    fn default() -> Self {
        ResponseReader {
            buf: Vec::new(),
            pos: 0,
            state: State::Head,
            cur: Parsed::default(),
        }
    }
}

impl ResponseReader {
    /// Appends bytes read off the socket.
    pub fn feed(&mut self, data: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// The next complete response, `Ok(None)` when more bytes are
    /// needed, `Err` on a framing violation.
    pub fn next(&mut self) -> Result<Option<Parsed>, String> {
        let out = self.step();
        if self.pos > 64 * 1024 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        out
    }

    fn step(&mut self) -> Result<Option<Parsed>, String> {
        loop {
            let rest = &self.buf[self.pos..];
            match self.state {
                State::Head => {
                    let Some(end) = find(rest, b"\r\n\r\n") else {
                        if rest.len() > 16 * 1024 {
                            return Err("response head over 16 KiB".into());
                        }
                        return Ok(None);
                    };
                    let head = std::str::from_utf8(&rest[..end])
                        .map_err(|_| "non-UTF-8 response head".to_string())?;
                    let (parsed, state) = parse_head(head)?;
                    self.cur = parsed;
                    self.pos += end + 4;
                    self.state = state;
                    if let State::Length(0) = state {
                        self.state = State::Head;
                        return Ok(Some(std::mem::take(&mut self.cur)));
                    }
                }
                State::Length(remaining) => {
                    let take = remaining.min(rest.len());
                    let data = &self.buf[self.pos..self.pos + take];
                    self.cur.append(data);
                    self.pos += take;
                    if take < remaining {
                        self.state = State::Length(remaining - take);
                        return Ok(None);
                    }
                    self.state = State::Head;
                    return Ok(Some(std::mem::take(&mut self.cur)));
                }
                State::ChunkSize => {
                    let Some(end) = find(rest, b"\r\n") else {
                        if rest.len() > 64 {
                            return Err("chunk-size line over 64 bytes".into());
                        }
                        return Ok(None);
                    };
                    let line = std::str::from_utf8(&rest[..end])
                        .map_err(|_| "non-UTF-8 chunk-size line".to_string())?;
                    let hex = line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad chunk-size line {line:?}"))?;
                    self.pos += end + 2;
                    self.state = if size == 0 {
                        State::Trailer
                    } else {
                        State::ChunkData(size)
                    };
                }
                State::ChunkData(remaining) => {
                    let take = remaining.min(rest.len());
                    let data = &self.buf[self.pos..self.pos + take];
                    self.cur.append(data);
                    self.pos += take;
                    if take < remaining {
                        self.state = State::ChunkData(remaining - take);
                        return Ok(None);
                    }
                    self.state = State::ChunkEnd;
                }
                State::ChunkEnd => {
                    if rest.len() < 2 {
                        return Ok(None);
                    }
                    if &rest[..2] != b"\r\n" {
                        return Err("chunk data not followed by CRLF".into());
                    }
                    self.pos += 2;
                    self.state = State::ChunkSize;
                }
                State::Trailer => {
                    let Some(end) = find(rest, b"\r\n") else {
                        return Ok(None);
                    };
                    self.pos += end + 2;
                    if end == 0 {
                        self.state = State::Head;
                        return Ok(Some(std::mem::take(&mut self.cur)));
                    }
                }
            }
        }
    }
}

fn parse_head(head: &str) -> Result<(Parsed, State), String> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut parsed = Parsed {
        status,
        ..Parsed::default()
    };
    let mut length = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("Content-Length") {
            let n: usize = value
                .parse()
                .map_err(|_| format!("bad Content-Length {value:?}"))?;
            if length.is_some_and(|m| m != n) {
                return Err("conflicting Content-Length headers".into());
            }
            length = Some(n);
        } else if name.eq_ignore_ascii_case("Transfer-Encoding") {
            parsed.chunked = value.eq_ignore_ascii_case("chunked");
            if !parsed.chunked {
                return Err(format!("unsupported Transfer-Encoding {value:?}"));
            }
        } else if name.eq_ignore_ascii_case("Content-Type") {
            parsed.content_type = value
                .split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase();
        }
    }
    let state = match (parsed.chunked, length) {
        (true, Some(_)) => return Err("both chunked and Content-Length".into()),
        (true, None) => State::ChunkSize,
        (false, Some(n)) => State::Length(n),
        (false, None) => return Err("response without framing".into()),
    };
    Ok((parsed, state))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(bytes: &[u8], split: usize) -> Result<Vec<Parsed>, String> {
        let mut r = ResponseReader::default();
        let mut out = Vec::new();
        for piece in bytes.chunks(split) {
            r.feed(piece);
            while let Some(p) = r.next()? {
                out.push(p);
            }
        }
        Ok(out)
    }

    #[test]
    fn reads_pipelined_length_and_chunked_responses_under_any_split() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello\
HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=x\r\nTransfer-Encoding: chunked\r\n\r\n\
3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n\
HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n";
        for split in 1..wire.len() {
            let got = read_all(wire, split).unwrap();
            assert_eq!(got.len(), 3, "split {split}");
            assert_eq!(got[0].text(), "hello");
            assert_eq!(got[1].text(), "abcde");
            assert!(got[1].chunked);
            assert_eq!(got[1].content_type, "text/html");
            assert_eq!(got[2].status, 403);
        }
    }

    #[test]
    fn rejects_broken_framing() {
        let bad_crlf = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcX\r\n";
        assert!(read_all(bad_crlf, 7).is_err());
        let unframed = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\nhello";
        assert!(read_all(unframed, 7).is_err());
    }

    #[test]
    fn a_truncated_stream_never_completes() {
        let cut = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n";
        assert!(read_all(cut, 5).unwrap().is_empty());
    }

    #[test]
    fn binary_bodies_keep_both_edges() {
        let body: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: image/png\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        for split in [1000, 3000, EDGE, 5000, wire.len()] {
            let got = read_all(&wire, split).unwrap();
            assert_eq!(got[0].body_len, body.len());
            assert_eq!(got[0].head, &body[..EDGE]);
            assert_eq!(got[0].last(EDGE), &body[body.len() - EDGE..]);
        }
    }
}
