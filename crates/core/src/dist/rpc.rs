//! Coordinator-side reliable RPC over worker links.
//!
//! The transport under this layer is lossy on purpose: the
//! deterministic fault injector may drop, duplicate, delay, or tear
//! any first transmission of a request frame. Reliability is restored
//! the same way the distributed matcher's `RankCore` restores it under
//! message loss — sequence numbers plus timeout-driven retransmission
//! with bounded exponential backoff:
//!
//! * every request carries a per-slot monotone `seq`; the worker
//!   deduplicates repeats and re-serves its cached reply,
//! * the coordinator resends the in-flight request whenever the reply
//!   is late (*resends are never fault-injected* — the fault models a
//!   wire that damaged the frame once, not a wire that eats every
//!   copy),
//! * a torn connection parks the link until the worker re-dials (the
//!   accept thread hands the fresh socket over a channel), then the
//!   in-flight request goes out again,
//! * reads are buffered incrementally in a [`FrameBuf`], so a poll
//!   timeout in the middle of a frame never loses the bytes already
//!   read.
//!
//! Liveness is heartbeat-based: any bytes from a worker refresh its
//! `last_seen`; a silent or disconnected worker past the configured
//! windows turns the wait into [`LinkDead`], which the coordinator's
//! supervision layer converts into a respawn or a repartition.

use super::wire::{decode_frame, encode_frame, Frame, Reply, Request};
use netalign_trace::faults::{NetFault, NetFaultKind};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// Upper bound on a coordinator↔worker frame (the Setup frame carries
/// the whole graph; 1 GiB is far beyond any in-memory problem here).
pub const MAX_FRAME: u32 = 1 << 30;

/// The worker behind a slot is considered lost: it stayed silent past
/// the liveness window, stayed disconnected past the reconnect window,
/// or sent undecodable bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkDead;

/// Transport timing knobs (defaults suit localhost chaos tests).
#[derive(Clone, Copy, Debug)]
pub struct Timeouts {
    /// Read-poll granularity while waiting for a reply.
    pub poll: Duration,
    /// First retransmission fires this long after a send.
    pub resend_after: Duration,
    /// Retransmission backoff cap.
    pub resend_cap: Duration,
    /// A connected worker silent this long is dead (heartbeats arrive
    /// every ~100 ms, so this tolerates ~30 missed beats).
    pub liveness: Duration,
    /// A disconnected worker that has not re-dialed within this window
    /// is dead (a live worker re-dials within milliseconds).
    pub reconnect_window: Duration,
}

impl Default for Timeouts {
    fn default() -> Self {
        Timeouts {
            poll: Duration::from_millis(20),
            resend_after: Duration::from_millis(150),
            resend_cap: Duration::from_millis(1000),
            liveness: Duration::from_millis(3000),
            reconnect_window: Duration::from_millis(1000),
        }
    }
}

/// Incremental parser for the length-prefixed frame stream: bytes go
/// in as they arrive, complete frames come out. Unlike
/// [`crate::frame::read_frame`], a short read leaves the partial frame
/// buffered instead of lost — required because the coordinator reads
/// with poll timeouts.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop one complete frame payload, `Ok(None)` when more bytes are
    /// needed, `Err(())` when the declared length is absurd (the
    /// stream is poisoned and the link must be torn down).
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>, ()> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(self.buf[..4].try_into().unwrap());
        if len > MAX_FRAME {
            return Err(());
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

struct Link {
    stream: Option<TcpStream>,
    buf: FrameBuf,
    last_seen: Instant,
    disconnected_at: Option<Instant>,
    next_seq: u64,
    /// Last request sent and not yet answered, as wire bytes ready to
    /// resend verbatim.
    inflight: Option<(u64, Vec<u8>)>,
    /// A fault-delayed first transmission, released alongside the next
    /// retransmission so the worker sees a late duplicate.
    delayed: Option<Vec<u8>>,
    dead: bool,
}

impl Link {
    fn new() -> Link {
        Link {
            stream: None,
            buf: FrameBuf::new(),
            last_seen: Instant::now(),
            disconnected_at: None,
            next_seq: 1,
            inflight: None,
            delayed: None,
            dead: false,
        }
    }

    fn drop_stream(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if self.disconnected_at.is_none() {
            self.disconnected_at = Some(Instant::now());
        }
    }
}

/// All coordinator↔worker links plus the reliability machinery.
pub struct Rpc {
    links: Vec<Link>,
    accept_rx: Receiver<(u32, TcpStream)>,
    timeouts: Timeouts,
    fault: Option<NetFault>,
    sent: u64,
}

impl Rpc {
    /// `accept_rx` delivers `(slot, stream)` pairs from the accept
    /// thread, which has already consumed each connection's `Hello`.
    pub fn new(
        slots: usize,
        accept_rx: Receiver<(u32, TcpStream)>,
        timeouts: Timeouts,
        fault: Option<NetFault>,
    ) -> Rpc {
        Rpc {
            links: (0..slots).map(|_| Link::new()).collect(),
            accept_rx,
            timeouts,
            fault,
            sent: 0,
        }
    }

    /// Adopt any freshly-accepted worker connections.
    fn drain_accepts(&mut self) {
        while let Ok((slot, stream)) = self.accept_rx.try_recv() {
            let Some(link) = self.links.get_mut(slot as usize) else {
                continue;
            };
            if link.dead {
                continue;
            }
            let _ = stream.set_nodelay(true);
            link.drop_stream();
            link.stream = Some(stream);
            link.buf = FrameBuf::new();
            link.last_seen = Instant::now();
            link.disconnected_at = None;
        }
    }

    /// Block until `slot` has a live connection (a worker said Hello),
    /// or the deadline passes.
    pub fn wait_attached(&mut self, slot: usize, deadline: Instant) -> bool {
        loop {
            self.drain_accepts();
            if self.links[slot].stream.is_some() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(self.timeouts.poll);
        }
    }

    /// Permanently retire a slot (respawn budget exhausted); later
    /// reconnect attempts from a zombie process are ignored.
    pub fn mark_dead(&mut self, slot: usize) {
        let link = &mut self.links[slot];
        link.dead = true;
        link.inflight = None;
        link.delayed = None;
        link.drop_stream();
    }

    /// Forget the in-flight request (the supervision layer is about to
    /// re-Setup this slot; the old request belongs to a dead epoch).
    pub fn clear_inflight(&mut self, slot: usize) {
        let link = &mut self.links[slot];
        link.inflight = None;
        link.delayed = None;
        link.last_seen = Instant::now();
    }

    /// Next fault decision for a first transmission.
    fn fault_tick(&mut self) -> Option<NetFaultKind> {
        let fault = self.fault?;
        self.sent += 1;
        self.sent.is_multiple_of(fault.every).then_some(fault.kind)
    }

    /// Send `req` to `slot` without waiting; returns the sequence
    /// number to [`Rpc::wait`] on. The first transmission passes
    /// through the fault injector; retransmissions do not.
    pub fn begin(&mut self, slot: usize, req: Request) -> u64 {
        let damage = self.fault_tick();
        let link = &mut self.links[slot];
        let seq = link.next_seq;
        link.next_seq += 1;
        let mut wire = Vec::new();
        crate::frame::write_frame(&mut wire, &encode_frame(&Frame::Request { seq, req }))
            .expect("in-memory frame write");
        link.inflight = Some((seq, wire.clone()));
        let Some(stream) = link.stream.as_mut() else {
            // Disconnected: the wait loop retransmits after reconnect.
            return seq;
        };
        match damage {
            None => {
                let _ = stream.write_all(&wire).and_then(|_| stream.flush());
            }
            Some(NetFaultKind::Drop) => {}
            Some(NetFaultKind::Dup) => {
                let _ = stream
                    .write_all(&wire)
                    .and_then(|_| stream.write_all(&wire))
                    .and_then(|_| stream.flush());
            }
            Some(NetFaultKind::Delay) => {
                // Held back until the retransmission fires, so the
                // worker sees the original arrive late, as a duplicate.
                link.delayed = Some(wire);
            }
            Some(NetFaultKind::Torn) => {
                let cut = (wire.len() / 2).clamp(1, wire.len() - 1);
                let _ = stream.write_all(&wire[..cut]).and_then(|_| stream.flush());
                link.drop_stream();
            }
        }
        seq
    }

    /// Wait for the reply to `(slot, seq)`, retransmitting as needed.
    pub fn wait(&mut self, slot: usize, seq: u64) -> Result<Reply, LinkDead> {
        let mut backoff = self.timeouts.resend_after;
        let mut next_resend = Instant::now() + backoff;
        loop {
            let had_stream = self.links[slot].stream.is_some();
            self.drain_accepts();
            let timeouts = self.timeouts;
            let link = &mut self.links[slot];
            if link.dead {
                return Err(LinkDead);
            }
            if !had_stream && link.stream.is_some() {
                // Just reconnected: retransmit immediately.
                next_resend = Instant::now();
            }
            if let Some(stream) = link.stream.as_mut() {
                let _ = stream.set_read_timeout(Some(timeouts.poll));
                let mut tmp = [0u8; 64 * 1024];
                match stream.read(&mut tmp) {
                    Ok(0) => link.drop_stream(),
                    Ok(n) => {
                        link.last_seen = Instant::now();
                        link.buf.extend(&tmp[..n]);
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => link.drop_stream(),
                }
                loop {
                    match link.buf.pop() {
                        Ok(Some(payload)) => match decode_frame(&payload) {
                            Ok(Frame::Reply { seq: s, reply }) if s == seq => {
                                link.inflight = None;
                                link.delayed = None;
                                return Ok(reply);
                            }
                            // Stale replies (late duplicates of already
                            // answered requests) and heartbeats just
                            // refresh liveness, which the read did.
                            Ok(_) => {}
                            Err(_) => {
                                link.drop_stream();
                                break;
                            }
                        },
                        Ok(None) => break,
                        Err(()) => {
                            link.drop_stream();
                            break;
                        }
                    }
                }
            } else {
                std::thread::sleep(timeouts.poll);
            }
            let now = Instant::now();
            let link = &mut self.links[slot];
            if now >= next_resend {
                if let Some(stream) = link.stream.as_mut() {
                    let mut wrote = false;
                    if let Some(d) = link.delayed.take() {
                        let _ = stream.write_all(&d);
                        wrote = true;
                    }
                    if let Some((s, wire)) = &link.inflight {
                        if *s == seq {
                            let _ = stream.write_all(wire).and_then(|_| stream.flush());
                            wrote = true;
                        }
                    }
                    if wrote {
                        netalign_trace::dist::global()
                            .retransmissions
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                backoff = (backoff * 2).min(self.timeouts.resend_cap);
                next_resend = now + backoff;
            }
            if let Some(t) = link.disconnected_at {
                if link.stream.is_none() && now.duration_since(t) > self.timeouts.reconnect_window {
                    return Err(LinkDead);
                }
            }
            if now.duration_since(link.last_seen) > self.timeouts.liveness {
                return Err(LinkDead);
            }
        }
    }

    /// Fire-and-forget (shutdown notifications): one clean write, no
    /// retransmission, no fault injection.
    pub fn send_best_effort(&mut self, slot: usize, req: Request) {
        let link = &mut self.links[slot];
        let seq = link.next_seq;
        link.next_seq += 1;
        let mut wire = Vec::new();
        let _ = crate::frame::write_frame(&mut wire, &encode_frame(&Frame::Request { seq, req }));
        if let Some(stream) = link.stream.as_mut() {
            let _ = stream.write_all(&wire).and_then(|_| stream.flush());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_buf_reassembles_across_arbitrary_splits() {
        let mut wire = Vec::new();
        crate::frame::write_frame(&mut wire, b"hello").unwrap();
        crate::frame::write_frame(&mut wire, b"").unwrap();
        crate::frame::write_frame(&mut wire, &[7u8; 300]).unwrap();
        // Feed one byte at a time; frames must pop exactly at their
        // boundaries.
        let mut buf = FrameBuf::new();
        let mut out = Vec::new();
        for b in wire {
            buf.extend(&[b]);
            while let Some(p) = buf.pop().unwrap() {
                out.push(p);
            }
        }
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], b"hello");
        assert!(out[1].is_empty());
        assert_eq!(out[2], vec![7u8; 300]);
        assert_eq!(buf.pop().unwrap(), None);
    }

    #[test]
    fn frame_buf_rejects_absurd_lengths() {
        let mut buf = FrameBuf::new();
        buf.extend(&u32::MAX.to_be_bytes());
        assert_eq!(buf.pop(), Err(()));
    }
}
