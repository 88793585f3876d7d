//! Blocking client for the wire-1.x protocol, on `std::net`.
//!
//! The server side is [`AsyncServer`](crate::reactor::AsyncServer),
//! which answers wire-1.x JSON frames on the same port as wire-2.0
//! binary ones. This client covers the low-volume traffic: device
//! registration and other admin requests, the examples, and tests. The
//! load generator's cohorts use the multiplexed [`crate::mux`] engine
//! instead.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::{recv_message, send_message, Request, Response};

/// Blocking wire-1.x client: one request in flight, the response read
/// before the next request goes out.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; `UnexpectedEof` if the server closed the
    /// connection instead of answering.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        send_message(&mut self.stream, request)?;
        self.read_response()
    }

    /// Sends raw bytes as one frame and waits for a response — lets
    /// attack-style clients deliver payloads that are not valid requests.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<Response> {
        crate::wire::write_frame(&mut self.stream, payload)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        match recv_message(&mut self.stream)? {
            Some(response) => Ok(response),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )),
        }
    }
}
