//! Binary message codec for the coordinator ↔ worker protocol.
//!
//! Hand-rolled little-endian encoding over the length-prefixed frames
//! of [`crate::frame`]. Floating-point values travel as raw IEEE-754
//! bits (`to_bits`/`from_bits`), so a value round-trips *bit-exactly*
//! — the foundation of the distributed runs' bit-identity guarantee.
//! Decoding is total: torn or trailing bytes yield a typed
//! [`WireError`], never a panic or an over-read.

use crate::bp::othermax::Max2;
use netalign_matching::distributed::DistMsg;

/// Decode failure. The transport treats any of these as a poisoned
/// peer (the frame arrived intact but its contents are nonsense).
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field being decoded.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// Bytes remained after the message was fully decoded.
    Trailing(usize),
    /// A declared length was absurd for the remaining buffer.
    BadLength(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadLength(n) => write!(f, "declared length {n} exceeds buffer"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    pub fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u32(v);
        }
    }

    pub fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor-based decoder; every getter checks bounds.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A declared element count, sanity-bounded by the bytes actually
    /// remaining so a corrupt length cannot trigger a huge allocation.
    fn len(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(elem_bytes as u64) > remaining {
            return Err(WireError::BadLength(n));
        }
        Ok(n as usize)
    }

    pub fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    pub fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Truncated)
    }

    pub fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(WireError::Trailing(left));
        }
        Ok(())
    }
}

/// Everything a worker needs to (re)build its rank state: the full
/// graph in edge-id order (`BipartiteGraph::from_entries` reproduces
/// the exact CSR layout), this rank's partition share and halo plans,
/// the solver constants, and — on recovery — the iterate blocks to
/// resume from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SetupMsg {
    pub na: u32,
    pub nb: u32,
    /// All edges of `L` in edge-id order.
    pub edges: Vec<(u32, u32, f64)>,
    /// This worker's partition index and the total number of parts
    /// (distinct from its process slot, which never changes).
    pub part_index: u32,
    pub num_parts: u32,
    pub a_lo: u64,
    pub a_hi: u64,
    pub e_lo: u64,
    pub e_hi: u64,
    pub v_lo: u64,
    pub v_hi: u64,
    /// Global `rowptr[e_lo..=e_hi]`.
    pub rowptr: Vec<u64>,
    /// Per peer part: local `sk_prev` positions to ship.
    pub send_plan: Vec<Vec<u32>>,
    /// Per peer part: local `skt` positions arriving values land in.
    pub scatter_plan: Vec<Vec<u32>>,
    pub alpha: f64,
    pub beta: f64,
    /// Directory for per-iteration checkpoints (shared filesystem).
    pub state_dir: String,
    /// Iterations `1..=start_iter` are already done; the `*_prev`
    /// blocks below hold the state after `start_iter` (empty = fresh
    /// zeros).
    pub start_iter: u32,
    pub y_prev: Vec<f64>,
    pub z_prev: Vec<f64>,
    pub sk_prev: Vec<f64>,
}

/// Which matcher phase an exchange frame carries an inbox for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchPhase {
    Match,
    Invalidate,
}

/// Coordinator → worker RPC bodies.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Setup(Box<SetupMsg>),
    /// Superstep A, producer half: return this rank's halo payloads.
    ProduceHalo,
    /// Superstep A, consumer half: scatter routed payloads (indexed by
    /// source part) into `skt`.
    ScatterHalo {
        payloads: Vec<Vec<f64>>,
    },
    /// Superstep B: F/d kernels, column partials.
    Solve {
        k: u32,
    },
    /// Superstep C+D: merged column stats in, finish the iteration
    /// (othermax, y/z, S update, damping), checkpoint, return the
    /// damped y/z blocks for rounding.
    Finish {
        k: u32,
        gk: f64,
        stats: Vec<(u32, Max2)>,
    },
    /// Initialize a matcher run over `weights` (a gathered iterate).
    MatchStart {
        weights: Vec<f64>,
        faulty: bool,
    },
    /// Matcher phase 1: return outgoing proposals as `(dest, msg)`.
    MatchPropose {
        round: u32,
    },
    /// Matcher phases 2/3: deliver an inbox; phase 2 returns outgoing
    /// announcements, phase 3 the rank's activity flag.
    MatchExchange {
        phase: MatchPhase,
        inbox: Vec<DistMsg>,
    },
    /// Collect the matched pairs this rank owns.
    MatchPairs,
    /// Clean exit.
    Shutdown,
}

/// Worker → coordinator RPC reply bodies.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Ack,
    HaloPayloads(Vec<Vec<f64>>),
    Partials(Vec<(u32, Max2)>),
    Blocks {
        y: Vec<f64>,
        z: Vec<f64>,
    },
    MatchOut(Vec<(u32, DistMsg)>),
    Progress(bool),
    Pairs(Vec<(u32, u32)>),
    /// The worker could not serve the request (e.g. no Setup yet).
    Err(String),
}

/// Envelope for every frame on a coordinator ↔ worker socket.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Worker → coordinator, first frame on every (re)connect.
    Hello { slot: u32 },
    /// Worker → coordinator, periodic liveness beacon.
    Heartbeat { slot: u32 },
    /// Coordinator → worker. `seq` numbers are monotone per slot; a
    /// worker answers a repeated `seq` from its reply cache without
    /// re-executing.
    Request { seq: u64, req: Request },
    /// Worker → coordinator.
    Reply { seq: u64, reply: Reply },
}

fn enc_dist_msg(e: &mut Enc, msg: &DistMsg) {
    match msg {
        DistMsg::Propose { from, to } => {
            e.u8(0);
            e.u32(*from);
            e.u32(*to);
        }
        DistMsg::Matched { v, mate } => {
            e.u8(1);
            e.u32(*v);
            e.u32(*mate);
        }
    }
}

fn dec_dist_msg(d: &mut Dec<'_>) -> Result<DistMsg, WireError> {
    match d.u8()? {
        0 => Ok(DistMsg::Propose {
            from: d.u32()?,
            to: d.u32()?,
        }),
        1 => Ok(DistMsg::Matched {
            v: d.u32()?,
            mate: d.u32()?,
        }),
        t => Err(WireError::BadTag(t)),
    }
}

/// Column statistics; the position travels as a `u64`, so the empty
/// statistic's `usize::MAX` survives.
fn enc_stats(e: &mut Enc, stats: &[(u32, Max2)]) {
    e.u64(stats.len() as u64);
    for &(b, (max1, max2, pos)) in stats {
        e.u32(b);
        e.f64(max1);
        e.f64(max2);
        e.u64(pos as u64);
    }
}

fn dec_stats(d: &mut Dec<'_>) -> Result<Vec<(u32, Max2)>, WireError> {
    let n = d.len(28)?;
    (0..n)
        .map(|_| Ok((d.u32()?, (d.f64()?, d.f64()?, d.u64()? as usize))))
        .collect()
}

fn enc_vec_f64s(e: &mut Enc, vss: &[Vec<f64>]) {
    e.u64(vss.len() as u64);
    for vs in vss {
        e.f64s(vs);
    }
}

fn dec_vec_f64s(d: &mut Dec<'_>) -> Result<Vec<Vec<f64>>, WireError> {
    let n = d.len(8)?;
    (0..n).map(|_| d.f64s()).collect()
}

fn enc_request(e: &mut Enc, req: &Request) {
    match req {
        Request::Setup(s) => {
            e.u8(0);
            e.u32(s.na);
            e.u32(s.nb);
            e.u64(s.edges.len() as u64);
            for (a, b, w) in &s.edges {
                e.u32(*a);
                e.u32(*b);
                e.f64(*w);
            }
            e.u32(s.part_index);
            e.u32(s.num_parts);
            for v in [s.a_lo, s.a_hi, s.e_lo, s.e_hi, s.v_lo, s.v_hi] {
                e.u64(v);
            }
            e.u64s(&s.rowptr);
            e.u64(s.send_plan.len() as u64);
            for plan in &s.send_plan {
                e.u32s(plan);
            }
            e.u64(s.scatter_plan.len() as u64);
            for plan in &s.scatter_plan {
                e.u32s(plan);
            }
            e.f64(s.alpha);
            e.f64(s.beta);
            e.str(&s.state_dir);
            e.u32(s.start_iter);
            e.f64s(&s.y_prev);
            e.f64s(&s.z_prev);
            e.f64s(&s.sk_prev);
        }
        Request::ProduceHalo => e.u8(1),
        Request::ScatterHalo { payloads } => {
            e.u8(2);
            enc_vec_f64s(e, payloads);
        }
        Request::Solve { k } => {
            e.u8(3);
            e.u32(*k);
        }
        Request::Finish { k, gk, stats } => {
            e.u8(4);
            e.u32(*k);
            e.f64(*gk);
            enc_stats(e, stats);
        }
        Request::MatchStart { weights, faulty } => {
            e.u8(5);
            e.f64s(weights);
            e.u8(*faulty as u8);
        }
        Request::MatchPropose { round } => {
            e.u8(6);
            e.u32(*round);
        }
        Request::MatchExchange { phase, inbox } => {
            e.u8(7);
            e.u8(match phase {
                MatchPhase::Match => 0,
                MatchPhase::Invalidate => 1,
            });
            e.u64(inbox.len() as u64);
            for msg in inbox {
                enc_dist_msg(e, msg);
            }
        }
        Request::MatchPairs => e.u8(8),
        Request::Shutdown => e.u8(9),
    }
}

fn dec_request(d: &mut Dec<'_>) -> Result<Request, WireError> {
    match d.u8()? {
        0 => {
            let na = d.u32()?;
            let nb = d.u32()?;
            let ne = d.len(16)?;
            let edges = (0..ne)
                .map(|_| Ok((d.u32()?, d.u32()?, d.f64()?)))
                .collect::<Result<Vec<_>, WireError>>()?;
            let part_index = d.u32()?;
            let num_parts = d.u32()?;
            let a_lo = d.u64()?;
            let a_hi = d.u64()?;
            let e_lo = d.u64()?;
            let e_hi = d.u64()?;
            let v_lo = d.u64()?;
            let v_hi = d.u64()?;
            let rowptr = d.u64s()?;
            let np = d.len(8)?;
            let send_plan = (0..np).map(|_| d.u32s()).collect::<Result<Vec<_>, _>>()?;
            let np = d.len(8)?;
            let scatter_plan = (0..np).map(|_| d.u32s()).collect::<Result<Vec<_>, _>>()?;
            let alpha = d.f64()?;
            let beta = d.f64()?;
            let state_dir = d.str()?;
            let start_iter = d.u32()?;
            let y_prev = d.f64s()?;
            let z_prev = d.f64s()?;
            let sk_prev = d.f64s()?;
            Ok(Request::Setup(Box::new(SetupMsg {
                na,
                nb,
                edges,
                part_index,
                num_parts,
                a_lo,
                a_hi,
                e_lo,
                e_hi,
                v_lo,
                v_hi,
                rowptr,
                send_plan,
                scatter_plan,
                alpha,
                beta,
                state_dir,
                start_iter,
                y_prev,
                z_prev,
                sk_prev,
            })))
        }
        1 => Ok(Request::ProduceHalo),
        2 => Ok(Request::ScatterHalo {
            payloads: dec_vec_f64s(d)?,
        }),
        3 => Ok(Request::Solve { k: d.u32()? }),
        4 => Ok(Request::Finish {
            k: d.u32()?,
            gk: d.f64()?,
            stats: dec_stats(d)?,
        }),
        5 => Ok(Request::MatchStart {
            weights: d.f64s()?,
            faulty: d.u8()? != 0,
        }),
        6 => Ok(Request::MatchPropose { round: d.u32()? }),
        7 => {
            let phase = match d.u8()? {
                0 => MatchPhase::Match,
                1 => MatchPhase::Invalidate,
                t => return Err(WireError::BadTag(t)),
            };
            let n = d.len(9)?;
            let inbox = (0..n).map(|_| dec_dist_msg(d)).collect::<Result<_, _>>()?;
            Ok(Request::MatchExchange { phase, inbox })
        }
        8 => Ok(Request::MatchPairs),
        9 => Ok(Request::Shutdown),
        t => Err(WireError::BadTag(t)),
    }
}

fn enc_reply(e: &mut Enc, reply: &Reply) {
    match reply {
        Reply::Ack => e.u8(0),
        Reply::HaloPayloads(vss) => {
            e.u8(1);
            enc_vec_f64s(e, vss);
        }
        Reply::Partials(stats) => {
            e.u8(2);
            enc_stats(e, stats);
        }
        Reply::Blocks { y, z } => {
            e.u8(3);
            e.f64s(y);
            e.f64s(z);
        }
        Reply::MatchOut(out) => {
            e.u8(4);
            e.u64(out.len() as u64);
            for (dest, msg) in out {
                e.u32(*dest);
                enc_dist_msg(e, msg);
            }
        }
        Reply::Progress(p) => {
            e.u8(5);
            e.u8(*p as u8);
        }
        Reply::Pairs(pairs) => {
            e.u8(6);
            e.u64(pairs.len() as u64);
            for (v, m) in pairs {
                e.u32(*v);
                e.u32(*m);
            }
        }
        Reply::Err(msg) => {
            e.u8(7);
            e.str(msg);
        }
    }
}

fn dec_reply(d: &mut Dec<'_>) -> Result<Reply, WireError> {
    match d.u8()? {
        0 => Ok(Reply::Ack),
        1 => Ok(Reply::HaloPayloads(dec_vec_f64s(d)?)),
        2 => Ok(Reply::Partials(dec_stats(d)?)),
        3 => Ok(Reply::Blocks {
            y: d.f64s()?,
            z: d.f64s()?,
        }),
        4 => {
            let n = d.len(13)?;
            let out = (0..n)
                .map(|_| Ok((d.u32()?, dec_dist_msg(d)?)))
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(Reply::MatchOut(out))
        }
        5 => Ok(Reply::Progress(d.u8()? != 0)),
        6 => {
            let n = d.len(8)?;
            let pairs = (0..n)
                .map(|_| Ok((d.u32()?, d.u32()?)))
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(Reply::Pairs(pairs))
        }
        7 => Ok(Reply::Err(d.str()?)),
        t => Err(WireError::BadTag(t)),
    }
}

/// Encode one envelope frame to bytes (the payload of one transport
/// frame).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::new();
    match frame {
        Frame::Hello { slot } => {
            e.u8(0);
            e.u32(*slot);
        }
        Frame::Heartbeat { slot } => {
            e.u8(1);
            e.u32(*slot);
        }
        Frame::Request { seq, req } => {
            e.u8(2);
            e.u64(*seq);
            enc_request(&mut e, req);
        }
        Frame::Reply { seq, reply } => {
            e.u8(3);
            e.u64(*seq);
            enc_reply(&mut e, reply);
        }
    }
    e.into_bytes()
}

/// Decode one envelope frame; rejects trailing bytes.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut d = Dec::new(bytes);
    let frame = match d.u8()? {
        0 => Frame::Hello { slot: d.u32()? },
        1 => Frame::Heartbeat { slot: d.u32()? },
        2 => Frame::Request {
            seq: d.u64()?,
            req: dec_request(&mut d)?,
        },
        3 => Frame::Reply {
            seq: d.u64()?,
            reply: dec_reply(&mut d)?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    d.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = encode_frame(&f);
        assert_eq!(decode_frame(&bytes).expect("decodes"), f);
    }

    #[test]
    fn frames_roundtrip_bit_exactly() {
        roundtrip(Frame::Hello { slot: 3 });
        roundtrip(Frame::Heartbeat { slot: 0 });
        roundtrip(Frame::Request {
            seq: 42,
            req: Request::Setup(Box::new(SetupMsg {
                na: 2,
                nb: 3,
                edges: vec![(0, 1, 0.25), (1, 2, -0.0)],
                part_index: 1,
                num_parts: 2,
                a_lo: 1,
                a_hi: 2,
                e_lo: 1,
                e_hi: 2,
                v_lo: 3,
                v_hi: 7,
                rowptr: vec![3, 7],
                send_plan: vec![vec![0, 1], vec![]],
                scatter_plan: vec![vec![2], vec![3]],
                alpha: 1.0,
                beta: 2.0,
                state_dir: "/tmp/x".into(),
                start_iter: 4,
                y_prev: vec![f64::NEG_INFINITY, 1.5e-300],
                z_prev: vec![],
                sk_prev: vec![0.1],
            })),
        });
        roundtrip(Frame::Request {
            seq: 7,
            req: Request::Finish {
                k: 9,
                gk: 0.5,
                stats: vec![
                    (4, (1.0, f64::NEG_INFINITY, 0)),
                    (5, (f64::NEG_INFINITY, f64::NEG_INFINITY, usize::MAX)),
                ],
            },
        });
        roundtrip(Frame::Request {
            seq: 8,
            req: Request::MatchExchange {
                phase: MatchPhase::Invalidate,
                inbox: vec![
                    DistMsg::Propose { from: 1, to: 9 },
                    DistMsg::Matched { v: 9, mate: 1 },
                ],
            },
        });
        roundtrip(Frame::Reply {
            seq: 8,
            reply: Reply::MatchOut(vec![(2, DistMsg::Matched { v: 1, mate: 2 })]),
        });
        roundtrip(Frame::Reply {
            seq: 9,
            reply: Reply::Blocks {
                y: vec![1.0, -2.0],
                z: vec![f64::MIN_POSITIVE],
            },
        });
        roundtrip(Frame::Reply {
            seq: 10,
            reply: Reply::Err("no setup".into()),
        });
    }

    #[test]
    fn nan_payloads_survive_bit_exactly() {
        // NaN != NaN, so compare bits explicitly.
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let bytes = encode_frame(&Frame::Reply {
            seq: 1,
            reply: Reply::Blocks {
                y: vec![weird],
                z: vec![],
            },
        });
        match decode_frame(&bytes).unwrap() {
            Frame::Reply {
                reply: Reply::Blocks { y, .. },
                ..
            } => assert_eq!(y[0].to_bits(), weird.to_bits()),
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let bytes = encode_frame(&Frame::Request {
            seq: 3,
            req: Request::Solve { k: 5 },
        });
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, WireError::Truncated | WireError::BadLength(_)),
                "cut {cut}: {err:?}"
            );
        }
        assert_eq!(decode_frame(&[99]), Err(WireError::BadTag(99)));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_frame(&trailing), Err(WireError::Trailing(1)));
    }

    #[test]
    fn huge_declared_lengths_are_rejected_without_allocating() {
        // A Reply::Blocks whose vector claims u64::MAX elements.
        let mut e = Enc::new();
        e.u8(3); // Frame::Reply
        e.u64(1); // seq
        e.u8(3); // Reply::Blocks
        e.u64(u64::MAX); // y length
        let err = decode_frame(&e.into_bytes()).expect_err("must reject");
        assert!(matches!(err, WireError::BadLength(_)), "{err:?}");
    }
}
