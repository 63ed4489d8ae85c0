//! Minimal `bytes`-compatible byte buffers for offline builds.
//!
//! [`Bytes`] is a cheaply-cloneable view into shared immutable storage;
//! [`BytesMut`] is a growable buffer; [`Buf`]/[`BufMut`] are the cursor
//! traits the protocol codecs are written against. Only little-endian
//! accessors are provided — the legacy wire format is LE throughout.
//!
//! As upstream, turning a buffer into [`Bytes`] never copies it:
//! `Bytes::from(Vec<u8>)` and [`BytesMut::freeze`] adopt the vector's
//! heap allocation, and [`Buf::copy_to_bytes`] on a `Bytes` returns a
//! view sharing its storage.

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

fn resolve_range(range: impl RangeBounds<usize>, len: usize) -> (usize, usize) {
    let start = match range.start_bound() {
        Bound::Included(&n) => n,
        Bound::Excluded(&n) => n + 1,
        Bound::Unbounded => 0,
    };
    let end = match range.end_bound() {
        Bound::Included(&n) => n + 1,
        Bound::Excluded(&n) => n,
        Bound::Unbounded => len,
    };
    assert!(start <= end && end <= len, "range out of bounds");
    (start, end)
}

/// A cheaply-cloneable immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Buffer over a static slice (copied; the shim has no zero-copy path).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Buffer copied from `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let (start, end) = resolve_range(range, self.len());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// A growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
    /// Read offset: everything before it has been consumed via
    /// `advance`. Compacted lazily (on `reserve`) to keep that cheap.
    head: usize,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
            head: 0,
        }
    }

    /// Length of the unconsumed portion.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether the unconsumed portion is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.compact();
        self.buf.reserve(additional);
    }

    /// Append `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Drop every byte, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    /// Freeze into an immutable [`Bytes`] over the same allocation.
    pub fn freeze(self) -> Bytes {
        let end = self.buf.len();
        Bytes {
            data: Arc::new(self.buf),
            start: self.head,
            end,
        }
    }

    fn compact(&mut self) {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.head..]
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let head = self.head;
        &mut self.buf[head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> BytesMut {
        BytesMut { buf, head: 0 }
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(mut b: BytesMut) -> Vec<u8> {
        b.compact();
        b.buf
    }
}

macro_rules! buf_get_impl {
    ($($name:ident => $ty:ty),* $(,)?) => {
        $(
            /// Read one little-endian value, advancing the cursor.
            fn $name(&mut self) -> $ty {
                let mut raw = [0u8; std::mem::size_of::<$ty>()];
                self.copy_to_slice(&mut raw);
                <$ty>::from_le_bytes(raw)
            }
        )*
    };
}

/// Cursor-style reads over a contiguous byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Read into `dst`, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read `len` bytes into an owned [`Bytes`], advancing the cursor.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Read one signed byte.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    buf_get_impl! {
        get_u16_le => u16,
        get_i16_le => i16,
        get_u32_le => u32,
        get_i32_le => i32,
        get_u64_le => u64,
        get_i64_le => i64,
        get_u128_le => u128,
        get_i128_le => i128,
    }

    /// Read one little-endian f64.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    /// Read one little-endian f32.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
    /// A view sharing this buffer's storage; nothing is copied.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = self.slice(..len);
        self.start += len;
        out
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.head += cnt;
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        (**self).copy_to_bytes(len)
    }
}

macro_rules! buf_put_impl {
    ($($name:ident => $ty:ty),* $(,)?) => {
        $(
            /// Append one value in little-endian order.
            fn $name(&mut self, v: $ty) {
                self.put_slice(&v.to_le_bytes());
            }
        )*
    };
}

/// Append-style writes into a growable byte sink.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append one signed byte.
    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    buf_put_impl! {
        put_u16_le => u16,
        put_i16_le => i16,
        put_u32_le => u32,
        put_i32_le => i32,
        put_u64_le => u64,
        put_i64_le => i64,
        put_u128_le => u128,
        put_i128_le => i128,
    }

    /// Append one little-endian f64.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }

    /// Append one little-endian f32.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slice_shares_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn bytes_buf_cursor() {
        let mut b = Bytes::from(vec![1, 0, 2, 0, 0, 0]);
        assert_eq!(b.get_u16_le(), 1);
        assert_eq!(b.get_u32_le(), 2);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn slice_ref_buf() {
        let data = [7u8, 0, 42];
        let mut cursor = &data[..];
        assert_eq!(cursor.get_u16_le(), 7);
        assert_eq!(cursor.get_u8(), 42);
        // Rvalue receiver form used by the frame decoder.
        assert_eq!((&data[..2]).get_u16_le(), 7);
    }

    #[test]
    fn bytes_mut_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_i64_le(-5);
        m.put_f64_le(1.5);
        m.put_i128_le(-12345);
        let mut r = m.freeze();
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_i64_le(), -5);
        assert_eq!(r.get_f64_le(), 1.5);
        assert_eq!(r.get_i128_le(), -12345);
    }

    #[test]
    fn bytes_mut_advance_clear_freeze() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"hello world");
        m.advance(6);
        assert_eq!(&m[..], b"world");
        m.reserve(64);
        assert_eq!(&m[..], b"world", "compaction keeps the unread bytes");
        m.advance(1);
        assert_eq!(&m.clone().freeze()[..], b"orld");
        assert_eq!(Vec::from(m.clone()), b"orld");
        m.clear();
        assert!(m.is_empty());
        m.put_u8(7);
        assert_eq!(&m.freeze()[..], &[7]);
    }

    #[test]
    fn copy_to_bytes_advances() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        let front = b.copy_to_bytes(3);
        assert_eq!(&front[..], &[1, 2, 3]);
        assert_eq!(b.remaining(), 1);
    }

    #[test]
    fn from_vec_and_freeze_adopt_the_allocation() {
        let v = vec![5u8; 1000];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), ptr, "Bytes::from(Vec) copied");

        let mut m = BytesMut::with_capacity(1000);
        m.extend_from_slice(&[6u8; 1000]);
        let ptr = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), ptr, "freeze copied");
    }

    #[test]
    fn copy_to_bytes_on_bytes_shares_storage() {
        let mut b = Bytes::from((0..100u8).collect::<Vec<u8>>());
        let base = b.as_ptr();
        b.advance(10);
        let mid = b.copy_to_bytes(50);
        assert_eq!(mid.as_ptr(), base.wrapping_add(10));
        assert_eq!(&mid[..], &(10..60u8).collect::<Vec<u8>>()[..]);
        assert_eq!(b.as_ptr(), base.wrapping_add(60));
        // Through the `&mut T` forwarding impl the generic codecs use.
        fn take(buf: &mut impl Buf, len: usize) -> Bytes {
            buf.copy_to_bytes(len)
        }
        let tail = take(&mut &mut b, 40);
        assert_eq!(tail.as_ptr(), base.wrapping_add(60));
        assert_eq!(b.remaining(), 0);
    }
}
