//! Record framing: `[len: u32][crc: u32][payload]`, little-endian.
//!
//! The frame layer is deliberately dumb: it knows nothing about record
//! contents, only how to delimit byte payloads so that a reader can walk
//! a log and *prove* where the valid prefix ends. Three properties carry
//! the durability guarantees:
//!
//! * A truncated tail (torn write) parses as [`FrameError::Truncated`] —
//!   never as a shorter valid frame, because the CRC covers the whole
//!   payload.
//! * A bit flip anywhere in a frame fails the CRC (or the length sanity
//!   cap, when the flip lands in the length word and inflates it).
//! * Parsing is total: any byte string yields either frames or a typed
//!   error, never a panic — the proptest suite drives this at every
//!   truncation point and under random corruption.

use crate::codec::{read_header, Reader, HEADER_BYTES};
use crate::crc::crc32;
use crate::error::WalError;
use std::ops::Range;
use std::path::Path;

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Sanity cap on a single frame's payload. A bit flip in the length word
/// can claim up to 4 GiB; anything beyond this cap is rejected as corrupt
/// without attempting to read it. The largest record of a checkpoint of
/// the full paper database is the employees' `InsertColumns`, 10.4 MB, so
/// 64 MiB leaves ample headroom.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Frame parse failures. `Truncated` specifically means "the buffer ended
/// mid-frame" — the reader treats it as a torn tail, not corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer ended inside a header or payload (torn write).
    Truncated,
    /// Length word exceeds [`MAX_FRAME_PAYLOAD`] (corrupt header).
    Oversized(u32),
    /// Payload checksum mismatch (corrupt payload or header).
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated (torn tail)"),
            FrameError::Oversized(n) => write!(f, "frame length {n} exceeds sanity cap"),
            FrameError::BadCrc => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one framed payload to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_frame_in_place(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame whose payload `encode` writes straight into `out`,
/// then fills in the length and CRC over it, so a caller that can encode
/// into `out` needs no payload buffer.
pub(crate) fn write_frame_in_place(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    encode(out);
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER);
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Reads the frame starting at `*pos`, advancing `*pos` past it.
///
/// Returns `Ok(None)` when `*pos` sits exactly at the end of the buffer
/// (a clean log end). Errors do not advance `*pos`.
pub fn read_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Option<&'a [u8]>, FrameError> {
    let mut r = Reader::new(buf.get(*pos..).ok_or(FrameError::Truncated)?);
    if r.remaining() == 0 {
        return Ok(None);
    }
    let torn = |_| FrameError::Truncated;
    let len = r.u32().map_err(torn)?;
    let crc = r.u32().map_err(torn)?;
    if len as usize > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let payload = r.take(len as usize).map_err(torn)?;
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    *pos = buf.len() - r.remaining();
    Ok(Some(payload))
}

/// Offsets (from the start of `buf`) just past each valid frame in the
/// prefix beginning at `start`. The crash harness kills the log at exactly
/// these boundaries; the last entry is where a clean reader stops.
pub fn frame_boundaries(buf: &[u8], start: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pos = start;
    while let Ok(Some(_)) = read_frame(buf, &mut pos) {
        out.push(pos);
    }
    out
}

/// A header-plus-frames file (the log, a checkpoint) read whole: the
/// header's base sequence, every frame up to the first that fails, and
/// why the frames stopped before the end of the file, if they did.
pub(crate) struct FramedFile {
    bytes: Vec<u8>,
    /// The header's base sequence.
    pub(crate) base_seq: u64,
    /// Each whole frame's payload, in file order.
    payloads: Vec<Range<usize>>,
    /// The failure the frames stopped at.
    pub(crate) stop: Option<FrameError>,
}

impl FramedFile {
    /// Reads the file at `path`, which must open with `magic`.
    pub(crate) fn read(path: &Path, magic: &[u8; 8]) -> Result<FramedFile, WalError> {
        let bytes = std::fs::read(path)?;
        let base_seq = read_header(&bytes, magic).ok_or(WalError::BadHeader)?;
        let (mut payloads, mut pos) = (Vec::new(), HEADER_BYTES);
        let stop = loop {
            match read_frame(&bytes, &mut pos) {
                Ok(Some(payload)) => payloads.push(pos - payload.len()..pos),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        Ok(FramedFile {
            bytes,
            base_seq,
            payloads,
            stop,
        })
    }

    /// Each whole frame's payload and the file offset just past it.
    pub(crate) fn frames(&self) -> impl Iterator<Item = (&[u8], usize)> {
        let bytes = &self.bytes;
        self.payloads.iter().map(|p| (&bytes[p.clone()], p.end))
    }

    /// The bytes of the file from `offset` on.
    pub(crate) fn bytes_after(&self, offset: usize) -> u64 {
        (self.bytes.len() - offset) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_boundaries() {
        let mut buf = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1, 2, 3], vec![0xFF; 5000]];
        for p in &payloads {
            write_frame(&mut buf, p);
        }
        let mut pos = 0;
        for p in &payloads {
            assert_eq!(read_frame(&buf, &mut pos).unwrap().unwrap(), &p[..]);
        }
        assert_eq!(read_frame(&buf, &mut pos).unwrap(), None);
        let bounds = frame_boundaries(&buf, 0);
        assert_eq!(bounds.len(), payloads.len());
        assert_eq!(*bounds.last().unwrap(), buf.len());
    }

    #[test]
    fn every_truncation_is_torn_not_valid() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, b"world!");
        for cut in 0..buf.len() {
            let cut_buf = &buf[..cut];
            let mut pos = 0;
            // Walk frames until the log ends; a cut mid-frame must
            // surface Truncated, never a bogus frame.
            loop {
                match read_frame(cut_buf, &mut pos) {
                    Ok(Some(p)) => assert!(p == b"hello" || p == b"world!"),
                    Ok(None) => break,
                    Err(FrameError::Truncated) => break,
                    Err(e) => panic!("cut {cut}: unexpected {e}"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_reading() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            read_frame(&buf, &mut 0),
            Err(FrameError::Oversized(u32::MAX))
        );
    }

    #[test]
    fn payload_corruption_fails_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert_eq!(read_frame(&buf, &mut 0), Err(FrameError::BadCrc));
    }
}
