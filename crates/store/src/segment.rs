//! The v2 binary segment format: length-prefixed trial frames.
//!
//! A v2 segment is an 8-byte magic header followed by a sequence of
//! records, each a little-endian length-prefixed frame:
//!
//! ```text
//! u32  frame_len          bytes after this field
//! u64  hash               the record's integrity chain (key
//!                         content hash folded over the payload)
//! u64  seed               the trial seed, exact (never via f64)
//! u16  protocol_len
//! u16  graph_len
//! u16  partitioner_len
//! [protocol][graph][partitioner][record_json]   UTF-8 bytes
//! ```
//!
//! The payload stays the producer's opaque single-line JSON, stored
//! as raw bytes so it round-trips bit-exactly, and the integrity hash
//! covers identity and payload alike. Decoding is a bounds check and
//! a hash instead of a recursive-descent JSON parse, which is what
//! makes opening a 10⁵–10⁶-record store fast (see `bench_serve`).
//!
//! Corruption handling: decoding keeps the longest well-formed prefix
//! of a segment (bad magic, an oversized or torn frame, non-UTF-8
//! labels, or a hash mismatch all end the prefix) and reports how
//! many bytes were dropped.

use crate::{line_hash, Entry, TrialKey};

/// The 8-byte header every v2 segment file starts with.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"BCHSEG2\n";

/// Hard upper bound on a single frame (defense against interpreting
/// corrupt bytes as a multi-gigabyte length and over-allocating).
const MAX_FRAME: u32 = 1 << 28;

/// Fixed bytes of a frame after the length prefix: hash + seed +
/// three label lengths.
const FRAME_FIXED: usize = 8 + 8 + 2 + 2 + 2;

/// Encodes one record as a v2 frame (length prefix included).
///
/// # Errors
///
/// Returns a description if a key label exceeds the format's 64 KiB
/// per-label bound (the payload length is only bounded by
/// [`MAX_FRAME`]).
pub(crate) fn encode(key: &TrialKey, record_json: &str) -> Result<Vec<u8>, String> {
    let (p, g, a, r) = (
        key.protocol.as_bytes(),
        key.graph.as_bytes(),
        key.partitioner.as_bytes(),
        record_json.as_bytes(),
    );
    for (name, bytes) in [("protocol", p), ("graph", g), ("partitioner", a)] {
        if bytes.len() > u16::MAX as usize {
            return Err(format!(
                "{name} label is {} bytes; the v2 frame bound is {}",
                bytes.len(),
                u16::MAX
            ));
        }
    }
    let frame_len = FRAME_FIXED + p.len() + g.len() + a.len() + r.len();
    if frame_len > MAX_FRAME as usize {
        return Err(format!(
            "record frame is {frame_len} bytes; the v2 frame bound is {MAX_FRAME}"
        ));
    }
    let mut out = Vec::with_capacity(4 + frame_len);
    out.extend_from_slice(&(frame_len as u32).to_le_bytes());
    out.extend_from_slice(&line_hash(key, record_json).to_le_bytes());
    out.extend_from_slice(&key.seed.to_le_bytes());
    out.extend_from_slice(&(p.len() as u16).to_le_bytes());
    out.extend_from_slice(&(g.len() as u16).to_le_bytes());
    out.extend_from_slice(&(a.len() as u16).to_le_bytes());
    out.extend_from_slice(p);
    out.extend_from_slice(g);
    out.extend_from_slice(a);
    out.extend_from_slice(r);
    Ok(out)
}

/// What decoding one segment's bytes produced: the well-formed
/// prefix's entries, how many bytes that prefix spans, and the
/// failure that ended it (if any).
pub(crate) struct SegmentLoad {
    /// Decoded records, in append order.
    pub entries: Vec<Entry>,
    /// Bytes of the well-formed prefix (including the magic header).
    pub good_bytes: usize,
    /// The decode failure that ended the prefix, if the segment was
    /// not fully intact.
    pub error: Option<String>,
}

/// Decodes a whole v2 segment, keeping the longest well-formed
/// prefix. Never fails: corruption is reported via
/// [`SegmentLoad::error`] with everything before it preserved.
pub(crate) fn decode_all(bytes: &[u8]) -> SegmentLoad {
    let mut load = SegmentLoad {
        entries: Vec::new(),
        good_bytes: 0,
        error: None,
    };
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        load.error = Some("segment header is missing or not BCHSEG2".to_string());
        return load;
    }
    let mut at = SEGMENT_MAGIC.len();
    load.good_bytes = at;
    while at < bytes.len() {
        match decode_frame(&bytes[at..]) {
            Ok((entry, consumed)) => {
                load.entries.push(entry);
                at += consumed;
                load.good_bytes = at;
            }
            Err(e) => {
                load.error = Some(e);
                return load;
            }
        }
    }
    load
}

/// Decodes one frame from the front of `bytes`, returning the entry
/// and how many bytes it consumed.
fn decode_frame(bytes: &[u8]) -> Result<(Entry, usize), String> {
    let take = |at: usize, n: usize| -> Result<&[u8], String> {
        bytes
            .get(at..at + n)
            .ok_or_else(|| "frame is torn (truncated mid-record)".to_string())
    };
    let u16_at = |at: usize| -> Result<usize, String> {
        Ok(u16::from_le_bytes(take(at, 2)?.try_into().expect("2 bytes")) as usize)
    };
    let frame_len = u32::from_le_bytes(take(0, 4)?.try_into().expect("4 bytes"));
    if frame_len > MAX_FRAME {
        return Err(format!(
            "frame length {frame_len} exceeds the format bound {MAX_FRAME}"
        ));
    }
    let frame_len = frame_len as usize;
    if frame_len < FRAME_FIXED {
        return Err(format!(
            "frame length {frame_len} is shorter than the fixed header"
        ));
    }
    let frame = take(4, frame_len)?;
    let hash = u64::from_le_bytes(frame[..8].try_into().expect("8 bytes"));
    let seed = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes"));
    let plen = u16_at(4 + 16)?;
    let glen = u16_at(4 + 18)?;
    let alen = u16_at(4 + 20)?;
    if FRAME_FIXED + plen + glen + alen > frame_len {
        return Err("label lengths exceed the frame".to_string());
    }
    let strings = &frame[FRAME_FIXED..];
    let utf8 = |range: std::ops::Range<usize>, what: &str| -> Result<String, String> {
        std::str::from_utf8(&strings[range])
            .map(str::to_string)
            .map_err(|_| format!("{what} is not UTF-8"))
    };
    let key = TrialKey {
        protocol: utf8(0..plen, "protocol label")?,
        graph: utf8(plen..plen + glen, "graph label")?,
        partitioner: utf8(plen + glen..plen + glen + alen, "partitioner label")?,
        seed,
    };
    let record_json = utf8(plen + glen + alen..strings.len(), "record payload")?;
    let expected = line_hash(&key, &record_json);
    if hash != expected {
        return Err(format!(
            "integrity hash {hash:016x} does not match key {key} + record (expected {expected:016x})"
        ));
    }
    Ok((Entry { key, record_json }, 4 + frame_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> TrialKey {
        TrialKey {
            protocol: "edge/theorem2".to_string(),
            graph: "gnp(n=30,p=0.15)".to_string(),
            partitioner: "alternating".to_string(),
            seed,
        }
    }

    fn segment_of(records: &[(TrialKey, &str)]) -> Vec<u8> {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        for (k, r) in records {
            bytes.extend_from_slice(&encode(k, r).expect("encodes"));
        }
        bytes
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        let records = [
            (key(0), r#"{"bits":12,"ok":true}"#),
            (key(u64::MAX), r#"{"metrics":{"x":0.5},"err":null}"#),
            (key(1 << 60), "{}"),
        ];
        let load = decode_all(&segment_of(&records));
        assert!(load.error.is_none(), "{:?}", load.error);
        assert_eq!(load.entries.len(), 3);
        for ((k, r), e) in records.iter().zip(&load.entries) {
            assert_eq!(&e.key, k);
            assert_eq!(e.record_json, *r);
        }
    }

    #[test]
    fn torn_tail_keeps_the_prefix() {
        let bytes = segment_of(&[(key(0), r#"{"a":1}"#), (key(1), r#"{"b":2}"#)]);
        for cut in 1..40 {
            let torn = &bytes[..bytes.len() - cut];
            let load = decode_all(torn);
            assert!(load.error.is_some(), "cut {cut} must be detected");
            assert_eq!(load.entries.len(), 1, "cut {cut} keeps the intact record");
            assert!(load.good_bytes <= torn.len());
        }
    }

    #[test]
    fn flipped_byte_is_a_hash_mismatch() {
        let mut bytes = segment_of(&[(key(3), r#"{"bits":9}"#)]);
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40; // flip inside the payload
        let load = decode_all(&bytes);
        assert_eq!(load.entries.len(), 0);
        assert!(
            load.error.as_deref().unwrap_or("").contains("integrity"),
            "{:?}",
            load.error
        );
    }

    #[test]
    fn bad_magic_is_rejected_up_front() {
        let mut bytes = segment_of(&[(key(0), "{}")]);
        bytes[0] = b'X';
        let load = decode_all(&bytes);
        assert_eq!(load.entries.len(), 0);
        assert_eq!(load.good_bytes, 0);
        assert!(load.error.is_some());
    }

    #[test]
    fn oversized_label_refuses_to_encode() {
        let mut k = key(0);
        k.protocol = "p".repeat(u16::MAX as usize + 1);
        assert!(encode(&k, "{}").is_err());
    }
}
