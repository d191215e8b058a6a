//! Bit-exact message encoding.
//!
//! The communication model counts *bits*. [`BitWriter`] packs bits into
//! a byte buffer and remembers the exact bit length; [`Message`] is the
//! immutable result shipped over the channel; [`BitReader`] unpacks.
//!
//! Protocol messages in this workspace are *self-synchronized*: both
//! parties can compute every field's width from shared public state
//! (the round number, public randomness, previously exchanged bits),
//! so no framing or length prefixes are needed beyond what the
//! protocol itself specifies — the meter counts exactly the paper's
//! bits.

use std::sync::Arc;

/// Number of bits needed to encode any value in `0..=max_value`.
///
/// `width_for(0) == 0`: a value known to be zero needs no bits.
///
/// # Example
///
/// ```
/// use bichrome_comm::wire::width_for;
/// assert_eq!(width_for(0), 0);
/// assert_eq!(width_for(1), 1);
/// assert_eq!(width_for(7), 3);
/// assert_eq!(width_for(8), 4);
/// ```
#[inline]
pub fn width_for(max_value: u64) -> usize {
    (64 - max_value.leading_zeros()) as usize
}

/// An append-only bit buffer.
///
/// # Example
///
/// ```
/// use bichrome_comm::wire::BitWriter;
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_uint(5, 3);
/// let msg = w.finish();
/// assert_eq!(msg.len_bits(), 4);
/// let mut r = msg.reader();
/// assert!(r.read_bit());
/// assert_eq!(r.read_uint(3), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    len_bits: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        let byte = self.len_bits / 8;
        let off = self.len_bits % 8;
        if off == 0 {
            self.buf.push(0);
        }
        if bit {
            self.buf[byte] |= 1 << off;
        }
        self.len_bits += 1;
    }

    /// Appends `width` bits of `value`, least-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write_uint(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds u64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in 0..width {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Appends an Elias-gamma-style variable-length nonnegative
    /// integer: a unary length (`⌊log2(v+1)⌋` zeros then a one)
    /// followed by the remainder bits. Costs `2⌊log2(v+1)⌋ + 1` bits.
    ///
    /// Use when neither party can bound the value from public state
    /// (e.g. "how many colors follow"). The cost is part of the
    /// protocol and is metered.
    pub fn write_gamma(&mut self, value: u64) {
        let v = value + 1;
        let width = width_for(v) - 1;
        for _ in 0..width {
            self.write_bit(false);
        }
        self.write_bit(true);
        self.write_uint(v & !(1u64 << width), width);
    }

    /// Appends every bit of `bits` in order.
    pub fn write_bools(&mut self, bits: &[bool]) {
        for &b in bits {
            self.write_bit(b);
        }
    }

    /// Freezes into an immutable [`Message`].
    pub fn finish(self) -> Message {
        Message {
            buf: Arc::from(self.buf),
            len_bits: self.len_bits,
        }
    }
}

/// An immutable bit message, cheap to clone (ref-counted buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    buf: Arc<[u8]>,
    len_bits: usize,
}

impl Default for Message {
    fn default() -> Self {
        Message {
            buf: Arc::from(Vec::new()),
            len_bits: 0,
        }
    }
}

impl Message {
    /// The empty message (zero bits).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Exact length in bits.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Whether the message carries zero bits.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// A cursor for reading the message from the start.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader {
            buf: &self.buf,
            len_bits: self.len_bits,
            pos: 0,
        }
    }

    /// The packed payload bytes (LSB-first within each byte, spare
    /// high bits of the last byte zero). For byte-stream transports;
    /// protocol code reads bits via [`Message::reader`].
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Rebuilds a message from framed payload bytes and its exact bit
    /// length — the decode half of a byte-stream transport.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly `ceil(len_bits / 8)` bytes.
    pub(crate) fn from_raw_parts(buf: Vec<u8>, len_bits: usize) -> Message {
        assert_eq!(
            buf.len(),
            len_bits.div_ceil(8),
            "payload byte count must match the framed bit length"
        );
        Message {
            buf: Arc::from(buf),
            len_bits,
        }
    }
}

impl From<BitWriter> for Message {
    fn from(w: BitWriter) -> Self {
        w.finish()
    }
}

/// A cursor over a [`Message`].
///
/// Reads past the end panic — protocols in this workspace always know
/// exactly how many bits to expect, so an over-read is a bug.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    len_bits: usize,
    pos: usize,
}

impl BitReader<'_> {
    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.len_bits - self.pos
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics on reading past the end.
    pub fn read_bit(&mut self) -> bool {
        assert!(self.pos < self.len_bits, "bit read past end of message");
        let bit = (self.buf[self.pos / 8] >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        bit
    }

    /// Reads `width` bits as an unsigned integer (LSB first).
    ///
    /// # Panics
    ///
    /// Panics on reading past the end or `width > 64`.
    pub fn read_uint(&mut self, width: usize) -> u64 {
        assert!(width <= 64, "width {width} exceeds u64");
        let mut v = 0u64;
        for i in 0..width {
            if self.read_bit() {
                v |= 1 << i;
            }
        }
        v
    }

    /// Reads a [`BitWriter::write_gamma`]-encoded integer.
    ///
    /// # Panics
    ///
    /// Panics on malformed input or reading past the end.
    pub fn read_gamma(&mut self) -> u64 {
        let mut width = 0usize;
        while !self.read_bit() {
            width += 1;
            assert!(width <= 64, "malformed gamma code");
        }
        let rest = self.read_uint(width);
        ((1u64 << width) | rest) - 1
    }

    /// Reads `count` bits into a vector.
    pub fn read_bools(&mut self, count: usize) -> Vec<bool> {
        (0..count).map(|_| self.read_bit()).collect()
    }

    /// Reads `count` bits into `out` (cleared first) — the
    /// allocation-free sibling of [`BitReader::read_bools`].
    pub fn read_bools_into(&mut self, count: usize, out: &mut Vec<bool>) {
        out.clear();
        out.extend((0..count).map(|_| self.read_bit()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_for_boundaries() {
        assert_eq!(width_for(0), 0);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(3), 2);
        assert_eq!(width_for(4), 3);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
        assert_eq!(width_for(u64::MAX), 64);
    }

    #[test]
    fn roundtrip_bits_and_uints() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bit(false);
        w.write_uint(0b1011, 4);
        w.write_uint(12345, 14);
        w.write_uint(0, 0); // zero-width write is a no-op
        let msg = w.finish();
        assert_eq!(msg.len_bits(), 20);
        let mut r = msg.reader();
        assert!(r.read_bit());
        assert!(!r.read_bit());
        assert_eq!(r.read_uint(4), 0b1011);
        assert_eq!(r.read_uint(14), 12345);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_gamma() {
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1023, 1024, 1_000_000] {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            let msg = w.finish();
            assert_eq!(msg.reader().read_gamma(), v, "gamma roundtrip of {v}");
        }
    }

    #[test]
    fn gamma_cost_is_logarithmic() {
        let mut w = BitWriter::new();
        w.write_gamma(0);
        assert_eq!(w.len_bits(), 1);
        let mut w = BitWriter::new();
        w.write_gamma(6); // v+1 = 7, width 2 -> 2+1+2 = 5 bits
        assert_eq!(w.len_bits(), 5);
    }

    #[test]
    fn roundtrip_bools() {
        let bits = vec![true, true, false, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        w.write_bools(&bits);
        let msg = w.finish();
        assert_eq!(msg.reader().read_bools(bits.len()), bits);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn overread_panics() {
        let msg = Message::empty();
        msg.reader().read_bit();
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut w = BitWriter::new();
        w.write_uint(8, 3);
    }

    #[test]
    fn empty_message() {
        let m = Message::empty();
        assert!(m.is_empty());
        assert_eq!(m.len_bits(), 0);
        assert!(BitWriter::new().is_empty());
    }

    #[test]
    fn sixty_four_bit_values() {
        let mut w = BitWriter::new();
        w.write_uint(u64::MAX, 64);
        let msg = w.finish();
        assert_eq!(msg.reader().read_uint(64), u64::MAX);
    }

    #[test]
    fn read_bools_into_reuses_buffer() {
        let bits = vec![true, false, true, true, false];
        let mut w = BitWriter::new();
        w.write_bools(&bits);
        let msg = w.finish();
        let mut out = vec![true; 64];
        msg.reader().read_bools_into(bits.len(), &mut out);
        assert_eq!(out, bits);
    }

    #[test]
    fn randomized_uint_width_roundtrips() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xB17_B17);
        for _ in 0..500 {
            let count = rng.gen_range(0..12usize);
            let fields: Vec<(u64, usize)> = (0..count)
                .map(|_| {
                    let width = rng.gen_range(0..=64usize);
                    let value = if width == 0 {
                        0
                    } else if width == 64 {
                        rng.gen()
                    } else {
                        rng.gen_range(0..(1u64 << width))
                    };
                    (value, width)
                })
                .collect();
            let mut w = BitWriter::new();
            for &(v, width) in &fields {
                w.write_uint(v, width);
            }
            let expected_bits: usize = fields.iter().map(|&(_, w)| w).sum();
            let msg = w.finish();
            assert_eq!(msg.len_bits(), expected_bits, "bit accounting is exact");
            let mut r = msg.reader();
            for &(v, width) in &fields {
                assert_eq!(r.read_uint(width), v, "width {width}");
            }
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn randomized_bit_sequence_roundtrips() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xB001);
        for _ in 0..200 {
            let len = rng.gen_range(0..300usize);
            let bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
            let mut w = BitWriter::new();
            w.write_bools(&bits);
            let msg = w.finish();
            assert_eq!(msg.len_bits(), bits.len());
            assert_eq!(msg.is_empty(), bits.is_empty());
            assert_eq!(msg.reader().read_bools(bits.len()), bits);
        }
    }

    #[test]
    fn randomized_mixed_fields_with_gamma() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x6A77A);
        for _ in 0..200 {
            // Interleave bits, uints, and gamma codes; empty messages
            // occur when count == 0.
            let count = rng.gen_range(0..10usize);
            let mut script: Vec<(u8, u64, usize)> = Vec::new();
            for _ in 0..count {
                match rng.gen_range(0..3u8) {
                    0 => script.push((0, rng.gen::<u64>() & 1, 1)),
                    1 => {
                        let width = rng.gen_range(1..=32usize);
                        script.push((1, rng.gen_range(0..(1u64 << width)), width));
                    }
                    _ => script.push((2, rng.gen_range(0..1_000_000u64), 0)),
                }
            }
            let mut w = BitWriter::new();
            for &(kind, v, width) in &script {
                match kind {
                    0 => w.write_bit(v == 1),
                    1 => w.write_uint(v, width),
                    _ => w.write_gamma(v),
                }
            }
            let msg = w.finish();
            if script.is_empty() {
                assert!(msg.is_empty());
            }
            let mut r = msg.reader();
            for &(kind, v, width) in &script {
                match kind {
                    0 => assert_eq!(r.read_bit(), v == 1),
                    1 => assert_eq!(r.read_uint(width), v),
                    _ => assert_eq!(r.read_gamma(), v),
                }
            }
            assert_eq!(r.remaining(), 0);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One field of a randomly composed message.
    #[derive(Debug, Clone)]
    enum Field {
        Bit(bool),
        Uint(u64, usize),
        Gamma(u64),
    }

    fn arb_field() -> impl Strategy<Value = Field> {
        prop_oneof![
            any::<bool>().prop_map(Field::Bit),
            (0usize..=64).prop_flat_map(|w| {
                let max = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
                (0..=max).prop_map(move |v| Field::Uint(v, w))
            }),
            (0u64..1_000_000).prop_map(Field::Gamma),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_field_sequences_roundtrip(fields in proptest::collection::vec(arb_field(), 0..40)) {
            let mut w = BitWriter::new();
            for f in &fields {
                match f {
                    Field::Bit(b) => w.write_bit(*b),
                    Field::Uint(v, width) => w.write_uint(*v, *width),
                    Field::Gamma(v) => w.write_gamma(*v),
                }
            }
            let msg = w.finish();
            let mut r = msg.reader();
            for f in &fields {
                match f {
                    Field::Bit(b) => prop_assert_eq!(r.read_bit(), *b),
                    Field::Uint(v, width) => prop_assert_eq!(r.read_uint(*width), *v),
                    Field::Gamma(v) => prop_assert_eq!(r.read_gamma(), *v),
                }
            }
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn bit_length_is_exact(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut w = BitWriter::new();
            w.write_bools(&bits);
            let msg = w.finish();
            prop_assert_eq!(msg.len_bits(), bits.len());
            prop_assert_eq!(msg.reader().read_bools(bits.len()), bits);
        }

        #[test]
        fn gamma_cost_formula(v in 0u64..u64::MAX / 4) {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            let expected = 2 * (width_for(v + 1) - 1) + 1;
            prop_assert_eq!(w.len_bits(), expected);
        }

        #[test]
        fn width_for_is_minimal(v in 1u64..u64::MAX / 2) {
            let w = width_for(v);
            prop_assert!(v < (1u64 << w));
            prop_assert!(v >= (1u64 << (w - 1)));
        }
    }
}
