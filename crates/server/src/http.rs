//! A deliberately small HTTP/1.1 layer on `std::net`.
//!
//! The build environment has no crates.io access, so the server speaks just
//! enough HTTP for its JSON job API: request line, headers, `Content-Length`
//! bodies, keep-alive. No chunked encoding, no TLS, no pipelining beyond the
//! sequential keep-alive loop. Anything malformed gets a JSON error response
//! and the connection is closed. [`Client`] is the other end, for the load
//! client and the tests: it reads replies through the same header-and-body
//! reader as [`read_request`].

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Largest accepted body, request or reply. Job specs and result documents
/// are small JSON documents; this bound keeps a misbehaving peer from
/// ballooning memory.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, `DELETE`).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request or a response could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before a message's first line (for
    /// the server, the normal end of a keep-alive session).
    Closed,
    /// The bytes on the wire were not an acceptable HTTP/1.1 message.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
    /// Transport error mid-message.
    Io(std::io::Error),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Closed => f.write_str("connection closed"),
            ReadError::Malformed(reason) => f.write_str(reason),
            ReadError::TooLarge(n) => write!(f, "body of {n} bytes is too large"),
            ReadError::Io(e) => e.fmt(f),
        }
    }
}

/// Reads one request from a buffered connection.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ReadError> {
    let line = read_start_line(reader)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line has no target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported protocol `{version}`"
        )));
    }
    // Strip any query string: the job API routes on the path alone.
    let path = target.split('?').next().unwrap_or(target).to_string();
    // HTTP/1.1 defaults to keep-alive; `Connection: close` opts out.
    let (body, keep_alive) = read_headers_and_body(reader, !version.starts_with("HTTP/1.0"))?;
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

/// Reads a message's first line; end of stream before it is
/// [`ReadError::Closed`].
fn read_start_line(reader: &mut BufReader<TcpStream>) -> Result<String, ReadError> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err(ReadError::Closed),
        Ok(_) => Ok(line),
        Err(e) => Err(ReadError::Io(e)),
    }
}

/// Reads the headers after a start line, then the `Content-Length` body
/// (at most [`MAX_BODY_BYTES`]). Returns the body and whether the connection
/// stays open, starting from `keep_alive` and following a `Connection`
/// header.
fn read_headers_and_body(
    reader: &mut BufReader<TcpStream>,
    mut keep_alive: bool,
) -> Result<(Vec<u8>, bool), ReadError> {
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => return Err(ReadError::Malformed("connection closed mid-headers".into())),
            Ok(_) => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ReadError::Malformed(format!("malformed header `{header}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| ReadError::Malformed(format!("bad content-length `{value}`")))?;
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.contains("close") {
                    keep_alive = false;
                } else if value.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(ReadError::Io)?;
    Ok((body, keep_alive))
}

/// One response to serialize onto the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body, always JSON in this API.
    pub body: String,
    /// Extra headers, e.g. `Retry-After` on 429.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            extra_headers: Vec::new(),
        }
    }

    /// A `{"error": …}` response with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        let body = mav_types::Json::object()
            .field("error", message)
            .to_string_pretty();
        Response::json(status, body + "\n")
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// The standard reason phrase for the codes this API uses.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            _ => "Internal Server Error",
        }
    }
}

/// Writes a response; `keep_alive` picks the `Connection` header.
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        response.reason(),
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: two small segments would trip the
    // Nagle/delayed-ACK interaction and add ~40 ms to every response.
    head.push_str(&response.body);
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// A keep-alive client connection: one request at a time, each reply read
/// by the same header-and-body reader the server uses.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One response as a [`Client`] reads it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Client {
    /// Opens a connection to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads its reply.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, ReadError> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: mav-server\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(request.as_bytes())
            .map_err(ReadError::Io)?;
        let line = read_start_line(&mut self.reader)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| ReadError::Malformed(format!("bad status line {line:?}")))?;
        let (body, _) = read_headers_and_body(&mut self.reader, true)?;
        let body = String::from_utf8(body)
            .map_err(|_| ReadError::Malformed("response body is not UTF-8".into()))?;
        Ok(Reply { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips raw request bytes through a real socket pair.
    fn parse(raw: &str) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw.as_bytes()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(server_side);
        read_request(&mut reader)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /jobs HTTP/1.1\r\ncontent-length: 4\r\n\r\n{}ab").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"{}ab");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_queries_are_handled() {
        let req = parse("GET /jobs/3?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.path, "/jobs/3");
        assert!(!req.keep_alive);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(
            parse("GET /jobs SMTP/9\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /jobs HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        let huge = format!(
            "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&huge), Err(ReadError::TooLarge(_))));
    }

    #[test]
    fn client_reads_replies_under_the_same_bounds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(server_side.try_clone().unwrap());
        let mut writer = server_side;
        let response = Response::error(429, "queue full").with_header("retry-after", "1");
        write_response(&mut writer, &response, true).unwrap();
        writer
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 99999999\r\n\r\n")
            .unwrap();

        let reply = client.send("POST", "/jobs", "{}").unwrap();
        assert_eq!((reply.status, reply.body), (429, response.body));
        let request = read_request(&mut reader).unwrap();
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("POST", "/jobs")
        );
        assert_eq!(request.body, b"{}");
        assert!(matches!(
            client.send("GET", "/jobs", ""),
            Err(ReadError::TooLarge(99_999_999))
        ));
        drop(writer);
        drop(reader);
        assert!(client.send("GET", "/jobs", "").is_err());
    }

    #[test]
    fn responses_carry_status_and_headers() {
        let r = Response::error(429, "queue full").with_header("retry-after", "1");
        assert_eq!(r.status, 429);
        assert_eq!(r.reason(), "Too Many Requests");
        assert!(r.body.contains("queue full"));
        assert_eq!(r.extra_headers.len(), 1);
    }
}
