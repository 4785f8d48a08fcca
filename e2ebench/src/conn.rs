//! One protocol connection that stamps every decoded frame.
//!
//! It speaks `adp_server::protocol` through the same calls
//! `adp_server::Client::call` makes (`Request::encode`, `write_frame`,
//! `read_frame`, `Response::decode`). It exists because `Client` buffers
//! pushed frames without recording when they arrived, and
//! `push_p50_ms` needs the moment each PUSH was decoded.

use adp_server::protocol::{read_frame, write_frame, Request, Response, MAX_PAYLOAD};
use adp_service::ViewUpdate;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Conn {
    stream: TcpStream,
    next_id: u64,
    /// Pushed updates with the instant each was decoded.
    pushes: VecDeque<(Instant, ViewUpdate)>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            next_id: 1,
            pushes: VecDeque::new(),
        })
    }

    /// Sends `request` and blocks for the frame echoing its id. An error
    /// frame comes back as `Err` with its code and message.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 2;
        let (opcode, payload) = request.encode().map_err(|e| e.to_string())?;
        self.stream
            .set_read_timeout(None)
            .map_err(|e| e.to_string())?;
        write_frame(&mut self.stream, opcode, id, &payload).map_err(|e| e.to_string())?;
        loop {
            let (frame_id, response) = self.read_one()?;
            if frame_id == id {
                return match response {
                    Response::Error { code, message } => Err(format!("{code:?}: {message}")),
                    other => Ok(other),
                };
            }
        }
    }

    /// Waits until the push for `epoch` has been decoded and returns the
    /// instant it was.
    pub fn wait_push(&mut self, epoch: u64, timeout: Duration) -> Result<Instant, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(pos) = self.pushes.iter().position(|(_, u)| u.epoch == epoch) {
                let (at, update) = self.pushes.remove(pos).expect("position is in range");
                if update.lagged.is_some() {
                    return Err(format!("push for epoch {epoch} reported lag"));
                }
                self.pushes.retain(|(_, u)| u.epoch > epoch);
                return Ok(at);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("no push for epoch {epoch} within {timeout:?}"));
            }
            self.stream
                .set_read_timeout(Some(left))
                .map_err(|e| e.to_string())?;
            self.read_one()?;
        }
    }

    /// Reads one frame; pushes are queued with their decode instant.
    fn read_one(&mut self) -> Result<(u64, Response), String> {
        let frame = read_frame(&mut self.stream, MAX_PAYLOAD)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let response = Response::decode(frame.opcode, &frame.payload).map_err(|e| e.to_string())?;
        let at = Instant::now();
        if let Response::Push(update) = &response {
            self.pushes.push_back((at, update.clone()));
        }
        Ok((frame.request_id, response))
    }
}
