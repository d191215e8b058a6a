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
//! covers identity and payload alike. Verifying a frame is a bounds
//! check, a UTF-8 check and a hash, with no per-record allocation:
//! the store keeps the segment's bytes as they were read, records
//! stay in their frames, and each is indexed by its frame offset and
//! its key's content hash (the first link of the integrity chain). An
//! open store is about its segment bytes plus a few dozen bytes per
//! record. The benchmark's `store.open_s` metric times the open of a
//! 10⁵-record store.
//!
//! Corruption handling: decoding keeps the longest well-formed prefix
//! of a segment (bad magic, an oversized or torn frame, non-UTF-8
//! labels, or a hash mismatch all end the prefix) and reports how
//! many bytes were dropped.

use crate::{content_hash, line_hash, record_hash, Entry, TrialKey};

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

/// What verifying one segment's bytes found: where each record of the
/// well-formed prefix starts, how many bytes that prefix spans, and
/// the failure that ended it (if any).
pub(crate) struct SegmentScan {
    /// `(frame offset, key content hash)` per record, in append order.
    pub frames: Vec<(usize, u64)>,
    /// Bytes of the well-formed prefix (including the magic header).
    pub good_bytes: usize,
    /// The decode failure that ended the prefix, if the segment was
    /// not fully intact.
    pub error: Option<String>,
}

/// Verifies a whole v2 segment, keeping the longest well-formed
/// prefix. Never fails: corruption is reported via
/// [`SegmentScan::error`] with everything before it preserved.
pub(crate) fn decode_all(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        frames: Vec::new(),
        good_bytes: 0,
        error: None,
    };
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        scan.error = Some("segment header is missing or not BCHSEG2".to_string());
        return scan;
    }
    let mut at = SEGMENT_MAGIC.len();
    scan.good_bytes = at;
    while at < bytes.len() {
        match verify_frame(&bytes[at..]) {
            Ok((key_hash, consumed)) => {
                scan.frames.push((at, key_hash));
                at += consumed;
                scan.good_bytes = at;
            }
            Err(e) => {
                scan.error = Some(e);
                return scan;
            }
        }
    }
    scan
}

/// Verifies the frame at the front of `bytes` — bounds, UTF-8 and the
/// integrity hash — and returns its key's content hash and how many
/// bytes it spans.
fn verify_frame(bytes: &[u8]) -> Result<(u64, usize), String> {
    let frame = Frame::parse(bytes)?;
    let utf8 = |b, what: &str| std::str::from_utf8(b).map_err(|_| format!("{what} is not UTF-8"));
    let protocol = utf8(frame.protocol, "protocol label")?;
    let graph = utf8(frame.graph, "graph label")?;
    let partitioner = utf8(frame.partitioner, "partitioner label")?;
    let record = utf8(frame.record, "record payload")?;
    let key_hash = content_hash(protocol, graph, partitioner, frame.seed);
    let expected = record_hash(key_hash, record);
    if frame.hash != expected {
        let key = TrialKey {
            protocol: protocol.to_string(),
            graph: graph.to_string(),
            partitioner: partitioner.to_string(),
            seed: frame.seed,
        };
        return Err(format!(
            "integrity hash {:016x} does not match key {key} + record (expected {expected:016x})",
            frame.hash
        ));
    }
    Ok((key_hash, frame.len))
}

/// One frame's fields, borrowed from the bytes it sits in.
pub(crate) struct Frame<'a> {
    /// The stored integrity hash.
    hash: u64,
    seed: u64,
    protocol: &'a [u8],
    graph: &'a [u8],
    partitioner: &'a [u8],
    record: &'a [u8],
    /// Bytes the frame spans, length prefix included.
    len: usize,
}

impl<'a> Frame<'a> {
    /// Splits the frame at the front of `bytes` into its fields: a
    /// bounds check, no UTF-8 or hash check.
    fn parse(bytes: &'a [u8]) -> Result<Frame<'a>, String> {
        let take = |at: usize, n: usize| -> Result<&'a [u8], String> {
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
        let plen = u16_at(4 + 16)?;
        let glen = u16_at(4 + 18)?;
        let alen = u16_at(4 + 20)?;
        if FRAME_FIXED + plen + glen + alen > frame_len {
            return Err("label lengths exceed the frame".to_string());
        }
        let (labels, record) = frame[FRAME_FIXED..].split_at(plen + glen + alen);
        let (protocol, rest) = labels.split_at(plen);
        let (graph, partitioner) = rest.split_at(glen);
        Ok(Frame {
            hash: u64::from_le_bytes(frame[..8].try_into().expect("8 bytes")),
            seed: u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes")),
            protocol,
            graph,
            partitioner,
            record,
            len: 4 + frame_len,
        })
    }

    /// The frame at `offset` of a segment buffer that holds only
    /// verified frames (read at open, or encoded by an append).
    pub(crate) fn at(segment: &'a [u8], offset: usize) -> Frame<'a> {
        Frame::parse(&segment[offset..]).expect("segment buffers hold verified frames")
    }

    /// The frame's raw bytes, length prefix included.
    pub(crate) fn bytes(segment: &'a [u8], offset: usize) -> &'a [u8] {
        &segment[offset..offset + Frame::at(segment, offset).len]
    }

    /// Whether the frame stores `key`.
    pub(crate) fn has_key(&self, key: &TrialKey) -> bool {
        self.seed == key.seed
            && self.protocol == key.protocol.as_bytes()
            && self.graph == key.graph.as_bytes()
            && self.partitioner == key.partitioner.as_bytes()
    }

    /// Whether both frames store the same key.
    pub(crate) fn same_key(&self, other: &Frame<'_>) -> bool {
        self.seed == other.seed
            && self.protocol == other.protocol
            && self.graph == other.graph
            && self.partitioner == other.partitioner
    }

    /// The record payload.
    pub(crate) fn record(&self) -> &'a str {
        text(self.record)
    }

    /// The stored trial: key and payload, copied out of the frame.
    pub(crate) fn entry(&self) -> Entry {
        Entry {
            key: TrialKey {
                protocol: text(self.protocol).to_string(),
                graph: text(self.graph).to_string(),
                partitioner: text(self.partitioner).to_string(),
                seed: self.seed,
            },
            record_json: self.record().to_string(),
        }
    }
}

/// A verified frame field as text.
fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("frame fields were UTF-8-checked when verified")
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
        let bytes = segment_of(&records);
        let scan = decode_all(&bytes);
        assert!(scan.error.is_none(), "{:?}", scan.error);
        assert_eq!(scan.good_bytes, bytes.len());
        assert_eq!(scan.frames.len(), 3);
        for ((k, r), &(offset, key_hash)) in records.iter().zip(&scan.frames) {
            assert_eq!(key_hash, k.content_hash());
            let frame = Frame::at(&bytes, offset);
            assert!(frame.has_key(k));
            assert_eq!(frame.record(), *r);
            assert_eq!(frame.entry().key, *k);
            assert_eq!(Frame::bytes(&bytes, offset), encode(k, r).expect("encodes"));
        }
    }

    #[test]
    fn torn_tail_keeps_the_prefix() {
        let bytes = segment_of(&[(key(0), r#"{"a":1}"#), (key(1), r#"{"b":2}"#)]);
        for cut in 1..40 {
            let torn = &bytes[..bytes.len() - cut];
            let scan = decode_all(torn);
            assert!(scan.error.is_some(), "cut {cut} must be detected");
            assert_eq!(scan.frames.len(), 1, "cut {cut} keeps the intact record");
            assert!(scan.good_bytes <= torn.len());
        }
    }

    #[test]
    fn flipped_byte_is_a_hash_mismatch() {
        let mut bytes = segment_of(&[(key(3), r#"{"bits":9}"#)]);
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40; // flip inside the payload
        let scan = decode_all(&bytes);
        assert_eq!(scan.frames.len(), 0);
        assert!(
            scan.error.as_deref().unwrap_or("").contains("integrity"),
            "{:?}",
            scan.error
        );
    }

    #[test]
    fn bad_magic_is_rejected_up_front() {
        let mut bytes = segment_of(&[(key(0), "{}")]);
        bytes[0] = b'X';
        let scan = decode_all(&bytes);
        assert_eq!(scan.frames.len(), 0);
        assert_eq!(scan.good_bytes, 0);
        assert!(scan.error.is_some());
    }

    #[test]
    fn oversized_label_refuses_to_encode() {
        let mut k = key(0);
        k.protocol = "p".repeat(u16::MAX as usize + 1);
        assert!(encode(&k, "{}").is_err());
    }
}
