//! Byte codec for the storage layer.
//!
//! Every on-disk artifact of [`crate::storage`] — WAL records, run rows,
//! manifest entries — is built from the little-endian primitives here. The
//! codec round-trips probability annotations **bit-for-bit**: `f64`s travel
//! as their IEEE-754 bit patterns, variable ids and BID domain values as raw
//! `u32`s, so a decoded [`AnnotatedTuple`] compares equal to the one that was
//! written and recovered confidences are bit-identical to pre-crash ones.

use events::{Atom, Clause, Dnf, VarId};

use crate::relation::AnnotatedTuple;
use crate::storage::{Row, StorageError};
use crate::value::Value;

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw IEEE-754 bit pattern (lossless).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a [`Value`] (tag byte + payload).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(0);
            put_u64(buf, *i as u64);
        }
        Value::Str(s) => {
            buf.push(1);
            put_str(buf, s);
        }
    }
}

/// Appends a lineage DNF: clause count, then per clause an atom count and
/// `(var, value)` pairs. Atoms are written in the clause's canonical sorted
/// order, so encoding is deterministic.
pub fn put_dnf(buf: &mut Vec<u8>, dnf: &Dnf) {
    put_u32(buf, dnf.len() as u32);
    for clause in dnf.clauses() {
        put_u32(buf, clause.len() as u32);
        for atom in clause.atoms() {
            put_u32(buf, atom.var.0);
            put_u32(buf, atom.value);
        }
    }
}

/// Encodes a full annotated tuple (values + lineage) as a standalone payload.
pub fn encode_tuple(tuple: &AnnotatedTuple) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + tuple.values.len() * 10);
    put_u32(&mut buf, tuple.values.len() as u32);
    for v in &tuple.values {
        put_value(&mut buf, v);
    }
    put_dnf(&mut buf, &tuple.lineage);
    buf
}

/// A bounds-checked read cursor over an encoded buffer.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        match self.pos.checked_add(n).and_then(|end| self.buf.get(self.pos..end)) {
            Some(out) => {
                self.pos += n;
                Ok(out)
            }
            None => Err(self.short(n)),
        }
    }

    /// The error of a read of `n` bytes past the end, built only when a
    /// read fails.
    #[cold]
    fn short(&self, n: usize) -> StorageError {
        StorageError::corrupt(format!(
            "unexpected end of record: wanted {n} bytes, {} left",
            self.remaining()
        ))
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        self.take(n)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, StorageError> {
        self.str().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string in place, without copying it.
    pub fn str(&mut self) -> Result<&'a str, StorageError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| StorageError::corrupt("non-UTF-8 string payload"))
    }
}

/// Reusable decode buffers for one row. [`RowBuf::decode`] overwrites them
/// in place and lends the result as a [`Row`], so a scan that decodes every
/// row into one `RowBuf` allocates nothing per row once the buffers have
/// grown to the widest row: an `Int` value needs no heap, and a `Str` value
/// reuses the string it replaces.
#[derive(Debug)]
pub struct RowBuf {
    values: Vec<Value>,
    atoms: Vec<Atom>,
    /// Clause `i` is `atoms[ends[i]..ends[i + 1]]`; `ends[0]` is 0.
    ends: Vec<usize>,
}

impl Default for RowBuf {
    fn default() -> Self {
        RowBuf { values: Vec::new(), atoms: Vec::new(), ends: vec![0] }
    }
}

impl RowBuf {
    /// Empty buffers.
    pub fn new() -> Self {
        RowBuf::default()
    }

    /// Decodes a payload produced by [`encode_tuple`] into the buffers and
    /// lends the row. The lineage comes out canonical, equal clause for
    /// clause to [`decode_tuple`]'s [`Dnf`]: the stored clauses are used as
    /// they lie when they already are (every payload [`encode_tuple`]
    /// writes is), and are normalized like [`Dnf::from_clauses`] only when
    /// the decoder sees them out of order, duplicated or inconsistent.
    pub fn decode(&mut self, payload: &[u8]) -> Result<Row<'_>, StorageError> {
        let mut cur = Cursor::new(payload);
        let arity = cur.u32()? as usize;
        self.values.truncate(arity);
        for i in 0..arity {
            match cur.u8()? {
                0 => {
                    let v = Value::Int(cur.u64()? as i64);
                    match self.values.get_mut(i) {
                        Some(slot) => *slot = v,
                        None => self.values.push(v),
                    }
                }
                1 => {
                    let s = cur.str()?;
                    match self.values.get_mut(i) {
                        Some(Value::Str(old)) => {
                            old.clear();
                            old.push_str(s);
                        }
                        Some(slot) => *slot = Value::str(s),
                        None => self.values.push(Value::str(s)),
                    }
                }
                tag => return Err(StorageError::corrupt(format!("unknown value tag {tag}"))),
            }
        }
        self.atoms.clear();
        self.ends.truncate(1);
        let mut canonical = true;
        for _ in 0..cur.u32()? {
            let start = self.atoms.len();
            for _ in 0..cur.u32()? {
                let atom = Atom::new(VarId(cur.u32()?), cur.u32()?);
                // Strictly increasing variables: sorted, deduplicated and
                // consistent at once.
                canonical &=
                    self.atoms.len() == start || self.atoms[self.atoms.len() - 1].var < atom.var;
                self.atoms.push(atom);
            }
            if let [.., prev, _] = self.ends[..] {
                canonical &= self.atoms[prev..start] < self.atoms[start..];
            }
            self.ends.push(self.atoms.len());
        }
        if cur.remaining() != 0 {
            return Err(StorageError::corrupt("trailing bytes after tuple payload"));
        }
        if !canonical {
            self.normalize();
        }
        Ok(Row::flat(&self.values, &self.atoms, &self.ends))
    }

    /// Rewrites the decoded clauses as [`Dnf::from_clauses`] normalizes
    /// them: atoms sorted and deduplicated, inconsistent clauses dropped,
    /// clauses sorted and deduplicated.
    #[cold]
    fn normalize(&mut self) {
        let dnf = Dnf::from_clauses(
            self.ends
                .windows(2)
                .map(|w| Clause::from_atoms(self.atoms[w[0]..w[1]].iter().copied())),
        );
        self.atoms.clear();
        self.ends.truncate(1);
        for clause in dnf.clauses() {
            self.atoms.extend_from_slice(clause.atoms());
            self.ends.push(self.atoms.len());
        }
    }
}

/// Decodes a payload produced by [`encode_tuple`] into an owned tuple: a
/// [`RowBuf::decode`] into fresh buffers.
pub fn decode_tuple(payload: &[u8]) -> Result<AnnotatedTuple, StorageError> {
    Ok(RowBuf::new().decode(payload)?.to_tuple())
}

/// The 256-entry CRC-32 lookup table, computed at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Guards every WAL
/// frame against torn or bit-rotted tails.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// SplitMix64 — the hash behind the run bloom filters. Deterministic, well
/// mixed, and dependency-free.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_round_trip_is_bit_exact() {
        let mut space = events::ProbabilitySpace::new();
        let x = space.add_bool("x", 0.1 + 0.2); // deliberately non-representable sum
        let y = space.add_discrete("y", vec![0.25, 0.5, 0.25]);
        let lineage = Dnf::from_clauses(vec![
            Clause::from_atoms(vec![Atom::pos(x), Atom::new(y, 2)]),
            Clause::from_bools(&[x]),
        ]);
        let tuple =
            AnnotatedTuple::new(vec![Value::Int(-42), Value::str("naïve")], lineage.clone());
        let decoded = decode_tuple(&encode_tuple(&tuple)).expect("round trip");
        assert_eq!(decoded, tuple);
        assert_eq!(decoded.lineage, lineage);
    }

    #[test]
    fn tautology_and_empty_lineages_round_trip() {
        for lineage in [Dnf::tautology(), Dnf::empty()] {
            let tuple = AnnotatedTuple::new(vec![Value::Int(1)], lineage);
            assert_eq!(decode_tuple(&encode_tuple(&tuple)).unwrap(), tuple);
        }
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let tuple = AnnotatedTuple::new(vec![Value::str("abc")], Dnf::tautology());
        let bytes = encode_tuple(&tuple);
        for cut in 0..bytes.len() {
            assert!(decode_tuple(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_tuple(&extended).is_err(), "trailing bytes must fail");
    }

    #[test]
    fn corrupt_counts_fail_without_reserving_them() {
        let tuple = AnnotatedTuple::new(vec![Value::Int(1)], Dnf::literal(VarId(2)));
        let bytes = encode_tuple(&tuple);
        // Arity, clause count, and atom count, each overwritten with 2^32 - 1.
        for at in [0, 13, 17] {
            let mut p = bytes.clone();
            p[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_tuple(&p).is_err(), "count at byte {at}");
        }
    }

    /// Reference decoder, `decode_tuple` as it was before [`RowBuf`]: a
    /// cursor that owns every value, sorts every clause and then the
    /// clauses. The oracle of the decoder equivalence test below.
    fn decode_tuple_oracle(payload: &[u8]) -> Result<AnnotatedTuple, StorageError> {
        let mut cur = Cursor::new(payload);
        let arity = cur.u32()? as usize;
        let mut values = Vec::with_capacity(arity.min(cur.remaining()));
        for _ in 0..arity {
            values.push(match cur.u8()? {
                0 => Value::Int(cur.u64()? as i64),
                1 => Value::Str(cur.string()?),
                tag => return Err(StorageError::corrupt(format!("unknown value tag {tag}"))),
            });
        }
        let n = cur.u32()? as usize;
        let mut clauses = Vec::with_capacity(n.min(cur.remaining() / 4));
        for _ in 0..n {
            let atoms = cur.u32()? as usize;
            let mut clause = Vec::with_capacity(atoms.min(cur.remaining() / 8));
            for _ in 0..atoms {
                let var = VarId(cur.u32()?);
                let value = cur.u32()?;
                clause.push(Atom::new(var, value));
            }
            clauses.push(Clause::from_atoms(clause));
        }
        let lineage = Dnf::from_clauses(clauses);
        if cur.remaining() != 0 {
            return Err(StorageError::corrupt("trailing bytes after tuple payload"));
        }
        Ok(AnnotatedTuple::new(values, lineage))
    }

    /// Both decoders accept `payload` or both reject it with the same
    /// message; when they accept, the row lent from `buf` and the owned
    /// tuple equal the oracle's values and clauses.
    fn assert_decoders_agree(buf: &mut RowBuf, payload: &[u8]) {
        let want = decode_tuple_oracle(payload);
        match (&want, buf.decode(payload)) {
            (Ok(tuple), Ok(row)) => {
                assert_eq!(row.values, tuple.values.as_slice(), "{payload:?}");
                let clauses: Vec<&[Atom]> = row.clauses().collect();
                let expected: Vec<&[Atom]> =
                    tuple.lineage.clauses().iter().map(Clause::atoms).collect();
                assert_eq!(clauses, expected, "{payload:?}");
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{payload:?}"),
            (want, got) => {
                panic!("{payload:?}: oracle {want:?}, in place {:?}", got.map(|r| r.to_tuple()))
            }
        }
        match (want, decode_tuple(payload)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("{payload:?}: oracle {a:?}, decode_tuple {b:?}"),
        }
    }

    /// A payload written by hand: `values`, then the clauses as given,
    /// whatever their order.
    fn raw_payload(values: &[Value], clauses: &[&[(u32, u32)]]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, values.len() as u32);
        for v in values {
            put_value(&mut buf, v);
        }
        put_u32(&mut buf, clauses.len() as u32);
        for clause in clauses {
            put_u32(&mut buf, clause.len() as u32);
            for &(var, value) in *clause {
                put_u32(&mut buf, var);
                put_u32(&mut buf, value);
            }
        }
        buf
    }

    #[test]
    fn in_place_decoder_accepts_and_yields_exactly_what_decode_tuple_did() {
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = splitmix64(state);
            state % n
        };
        let mut payloads = Vec::new();
        for _ in 0..24 {
            let values: Vec<Value> = (0..next(5))
                .map(|_| match next(3) {
                    0 => Value::str(["", "a", "naïve", "xyz", "ab"][next(5) as usize]),
                    _ => Value::Int(next(u64::MAX) as i64),
                })
                .collect();
            // Multi-clause BID lineages: each clause picks alternatives of
            // distinct blocks; `from_clauses` makes them canonical.
            let lineage = match next(4) {
                0 => Dnf::tautology(),
                1 => Dnf::empty(),
                _ => Dnf::from_clauses((0..1 + next(4)).map(|_| {
                    Clause::from_atoms(
                        (0..1 + next(3)).map(|_| Atom::new(VarId(next(5) as u32), next(3) as u32)),
                    )
                })),
            };
            payloads.push(encode_tuple(&AnnotatedTuple::new(values, lineage)));
        }
        let v = [Value::Int(3), Value::str("s")];
        payloads.extend([
            raw_payload(&v, &[&[(5, 0), (2, 1)]]), // atoms out of order
            raw_payload(&v, &[&[(2, 1), (2, 1)], &[(4, 0)]]), // duplicate atom
            raw_payload(&v, &[&[(2, 0), (2, 1)], &[(4, 0)]]), // inconsistent clause
            raw_payload(&v, &[&[(2, 0), (2, 1)]]), // nothing consistent
            raw_payload(&v, &[&[(3, 0)], &[(1, 0), (2, 0)]]), // clauses out of order
            raw_payload(&v, &[&[(1, 0)], &[(1, 0)], &[]]), // duplicate clauses
            raw_payload(&v, &[&[(2, 0), (1, 0)], &[(1, 0), (2, 0)]]), // equal once sorted
            raw_payload(&[], &[&[], &[(1, 1)]]),   // ⊤ before a literal
        ]);
        let mut buf = RowBuf::new();
        for payload in &payloads {
            assert_decoders_agree(&mut buf, payload);
            for cut in 0..payload.len() {
                assert_decoders_agree(&mut buf, &payload[..cut]);
            }
            for at in 0..payload.len() {
                let mut corrupt = payload.clone();
                for byte in (0..=u8::MAX).filter(|&b| b != payload[at]) {
                    corrupt[at] = byte;
                    assert_decoders_agree(&mut buf, &corrupt);
                }
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn splitmix_spreads_nearby_keys() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xFFFF, b & 0xFFFF, "low bits must differ for bloom slots");
    }
}
