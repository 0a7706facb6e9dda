//! The HTTP front end: routing plus the accept loop.
//!
//! Routes:
//!
//! | Method & path          | Behaviour                                      |
//! |------------------------|------------------------------------------------|
//! | `POST /jobs`           | Submit a job spec. 202 queued / 200 cache hit / 400 malformed / 429 queue full |
//! | `GET /jobs`            | Status documents for every job                 |
//! | `GET /jobs/:id`        | One job's status (404 unknown)                 |
//! | `GET /jobs/:id/result` | Result document (409 until done, 404 unknown)  |
//! | `DELETE /jobs/:id`     | Remove a queued/done job (409 while running)   |

use crate::http::{read_request, write_response, ReadError, Request, Response};
use crate::service::{DeleteOutcome, JobService, ResultFetch, ServiceOptions, SubmitError};
use crate::spec::parse_spec;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Maps one parsed request to a response. Pure routing: all state lives in
/// the service, so this is directly testable without sockets.
pub fn handle(service: &JobService, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => match parse_spec(&request.body) {
            Err(reason) => Response::error(400, &reason),
            Ok(spec) => match service.submit(spec) {
                Err(SubmitError::QueueFull) => {
                    Response::error(429, "job queue is full, retry later")
                        .with_header("retry-after", "1")
                }
                Ok((id, cached)) => {
                    let body = service
                        .status(id)
                        .map(|status| status.to_string_pretty() + "\n")
                        .unwrap_or_default();
                    Response::json(if cached { 200 } else { 202 }, body)
                }
            },
        },
        ("GET", ["jobs"]) => Response::json(200, service.list().to_string_pretty() + "\n"),
        ("GET", ["jobs", id]) => match parse_id(id) {
            None => Response::error(404, &format!("`{id}` is not a job id")),
            Some(id) => match service.status(id) {
                Some(status) => Response::json(200, status.to_string_pretty() + "\n"),
                None => Response::error(404, &format!("no job {id}")),
            },
        },
        ("GET", ["jobs", id, "result"]) => match parse_id(id) {
            None => Response::error(404, &format!("`{id}` is not a job id")),
            Some(id) => match service.result(id) {
                ResultFetch::Ready(result) => Response::json(200, (*result).clone()),
                ResultFetch::NotDone(state) => {
                    Response::error(409, &format!("job {id} is not done (status: {state})"))
                }
                ResultFetch::Missing => Response::error(404, &format!("no job {id}")),
            },
        },
        ("DELETE", ["jobs", id]) => match parse_id(id) {
            None => Response::error(404, &format!("`{id}` is not a job id")),
            Some(id) => match service.delete(id) {
                DeleteOutcome::Deleted => Response::json(
                    200,
                    mav_types::Json::object()
                        .field("deleted", id)
                        .to_string_pretty()
                        + "\n",
                ),
                DeleteOutcome::Running => {
                    Response::error(409, &format!("job {id} is running and cannot be deleted"))
                }
                DeleteOutcome::Missing => Response::error(404, &format!("no job {id}")),
            },
        },
        (_, ["jobs"]) | (_, ["jobs", ..]) => {
            Response::error(405, &format!("method {} not allowed here", request.method))
        }
        _ => Response::error(404, &format!("no such route: {}", request.path)),
    }
}

fn parse_id(segment: &str) -> Option<u64> {
    segment.parse().ok()
}

/// A running server: job service + accept loop, stoppable for tests.
pub struct Server {
    addr: SocketAddr,
    service: Arc<JobService>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving on background threads.
    pub fn start(bind: &str, options: ServiceOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(JobService::start(options));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &service, &stop))
        };
        Ok(Server {
            addr,
            service,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the job service (in-process callers, tests).
    pub fn service(&self) -> &JobService {
        &self.service
    }

    /// Blocks the calling thread until the accept loop exits — i.e. forever,
    /// for a server nothing calls [`Server::stop`] on. `mav-server`'s main
    /// parks here.
    pub fn run(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, joins the accept thread and shuts the pool down.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() the loop is parked in.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.service.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<JobService>, stop: &Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let service = Arc::clone(service);
        std::thread::spawn(move || handle_connection(&service, stream));
    }
}

/// Serves one connection: a sequential keep-alive request loop.
fn handle_connection(service: &JobService, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader) {
            Ok(request) => {
                let response = handle(service, &request);
                if write_response(&mut writer, &response, request.keep_alive).is_err()
                    || !request.keep_alive
                {
                    return;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(reason)) => {
                let _ = write_response(&mut writer, &Response::error(400, &reason), false);
                return;
            }
            Err(error @ ReadError::TooLarge(_)) => {
                let response = Response::error(413, &error.to_string());
                let _ = write_response(&mut writer, &response, false);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    fn test_service(workers: usize, capacity: usize) -> JobService {
        JobService::start(ServiceOptions {
            workers,
            queue_capacity: capacity,
        })
    }

    #[test]
    fn routing_covers_errors_without_sockets() {
        let service = test_service(0, 2);
        assert_eq!(handle(&service, &request("GET", "/", b"")).status, 404);
        assert_eq!(handle(&service, &request("PUT", "/jobs", b"")).status, 405);
        assert_eq!(
            handle(&service, &request("GET", "/jobs/abc", b"")).status,
            404
        );
        assert_eq!(
            handle(&service, &request("GET", "/jobs/7", b"")).status,
            404
        );
        assert_eq!(
            handle(&service, &request("DELETE", "/jobs/7", b"")).status,
            404
        );
        let bad = handle(&service, &request("POST", "/jobs", b"{\"type\":\"x\"}"));
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("error"));
    }

    #[test]
    fn submit_list_and_backpressure() {
        let service = test_service(0, 1);
        let spec = br#"{"type":"mission","config":{"application":"scanning"}}"#;
        let first = handle(&service, &request("POST", "/jobs", spec));
        assert_eq!(first.status, 202, "{}", first.body);
        let spec2 = br#"{"type":"mission","config":{"application":"scanning","seed":9}}"#;
        let full = handle(&service, &request("POST", "/jobs", spec2));
        assert_eq!(full.status, 429);
        assert!(full
            .extra_headers
            .iter()
            .any(|(name, _)| name == "retry-after"));
        let list = handle(&service, &request("GET", "/jobs", b""));
        assert_eq!(list.status, 200);
        assert!(list.body.contains("\"queued\""));
        let pending = handle(&service, &request("GET", "/jobs/1/result", b""));
        assert_eq!(pending.status, 409);
    }
}
