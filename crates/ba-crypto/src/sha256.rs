//! SHA-256 (FIPS 180-4) with a hardware compression kernel and a portable
//! fallback.
//!
//! Written in-tree so the reproduction has no external crypto dependency.
//! [`Sha256`] buffers input into 64-byte blocks and hands every run of whole
//! blocks to one `compress_blocks` call, which dispatches to one of two
//! kernels:
//!
//! * `sha-ni` — the x86-64 SHA extensions (`sha256rnds2`, `sha256msg1`,
//!   `sha256msg2`, with SSSE3/SSE4.1 for byte order and state shuffles),
//!   used when the CPU reports all three features;
//! * `portable` — a scalar implementation of the FIPS round function, the
//!   only kernel on other CPUs and the reference the tests compare the
//!   hardware kernel against.
//!
//! The choice is made once per process by runtime feature detection and
//! is not configurable: both kernels produce the same digests, so a knob
//! could only make runs slower. [`kernel`] names the kernel in use, so
//! benchmark reports can record it. Digests are validated against the
//! FIPS/NIST vectors and an independent bit-by-bit reference in the unit
//! and property tests, for both kernels.
//!
//! The code is not constant-time and must not be used outside this
//! simulation.

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of a SHA-256 message block in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// ```
/// use ba_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finishes the computation, returning the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        crate::stats::record_hash();
        self.finalize_with(compress_blocks)
    }

    /// One-shot convenience for hashing a byte slice.
    ///
    /// ```
    /// use ba_crypto::sha256::Sha256;
    /// let d = Sha256::digest(b"");
    /// assert_eq!(d[0], 0xe3);
    /// ```
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// [`update`](Self::update) with an explicit compression kernel.
    fn update_with(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = rest.len() - rest.len() % BLOCK_LEN;
        if whole > 0 {
            compress(&mut self.state, &rest[..whole]);
        }
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`finalize`](Self::finalize) with an explicit compression kernel.
    ///
    /// The padding (`0x80`, zeros, 64-bit big-endian bit length) is laid
    /// out behind the buffered bytes in one go and compressed in a single
    /// call of one block, or two when fewer than 9 bytes of the last block
    /// are free.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let len = if self.buf_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..len]);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Name of the compression kernel this process uses: `"sha-ni"` when the
/// CPU has the x86-64 SHA extensions (with SSSE3 and SSE4.1), otherwise
/// `"portable"`.
///
/// ```
/// let k = ba_crypto::sha256::kernel();
/// assert!(k == "sha-ni" || k == "portable");
/// ```
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        return "sha-ni";
    }
    "portable"
}

/// Compresses `blocks` (a whole number of 64-byte blocks) into `state`
/// with the kernel named by [`kernel`].
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `sha_ni::detected()` has confirmed at run time that the
        // CPU supports `sha`, `ssse3` and `sse4.1`, the features
        // `sha_ni::compress_blocks` is compiled for.
        unsafe { sha_ni::compress_blocks(state, blocks) };
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// The scalar kernel: the FIPS 180-4 message schedule and 64 rounds per
/// block.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA-extensions kernel.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether the CPU supports every feature [`compress_blocks`] uses.
    /// Detected on first use and cached for the life of the process.
    pub(super) fn detected() -> bool {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    /// Message schedule for the next four words: given `w[i-16..i]` as four
    /// vectors, returns `w[i..i+4]`.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Message words `4i..4i + 4` of `block`, converted from big-endian.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn load_words(block: &[u8], i: usize) -> __m128i {
        let bytes = &block[16 * i..16 * i + 16];
        // SAFETY: `bytes` is 16 bytes, read as one unaligned load (SSE2,
        // part of every x86-64 CPU).
        let v = unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) };
        // Reverses the bytes of each 32-bit lane.
        _mm_shuffle_epi8(
            v,
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203),
        )
    }

    /// Rounds `4i..4i + 4`, given the message words `w[4i..4i + 4]`.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &K[4 * i..4 * i + 4];
        // SAFETY: `k` is four words, read as one unaligned 16-byte load
        // (SSE2, part of every x86-64 CPU).
        let wk = _mm_add_epi32(w, unsafe { _mm_loadu_si128(k.as_ptr().cast::<__m128i>()) });
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into `state`.
    ///
    /// The hardware rounds keep the state as two vectors, `ABEF` and
    /// `CDGH`; each `sha256rnds2` performs two rounds, taking its two
    /// `W + K` words from the low half of the third operand.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1` (see [`detected`]).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
        // SAFETY: `state` is 32 bytes, read as two unaligned 16-byte loads
        // (SSE2, part of every x86-64 CPU).
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = load_words(block, 0);
            let mut w1 = load_words(block, 1);
            let mut w2 = load_words(block, 2);
            let mut w3 = load_words(block, 3);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            for i in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 bytes, written as two unaligned 16-byte
        // stores (SSE2, part of every x86-64 CPU).
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgef);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn fips_vector_one_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let whole = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"x"), Sha256::digest(b"y"));
        assert_ne!(Sha256::digest(b"ab"), Sha256::digest(b"a"));
    }

    #[test]
    fn default_equals_new() {
        let a = Sha256::default();
        let b = Sha256::new();
        assert_eq!(a.finalize(), b.finalize());
    }

    /// Independent reference: a direct, non-streaming transliteration of the
    /// FIPS pseudocode used to cross-check the production implementation.
    #[allow(clippy::needless_range_loop)]
    fn reference_sha256(msg: &[u8]) -> [u8; 32] {
        let mut padded = msg.to_vec();
        let bit_len = (msg.len() as u64) * 8;
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&bit_len.to_be_bytes());
        let mut state = super::H0;
        for block in padded.chunks_exact(64) {
            let mut w = [0u32; 64];
            for i in 0..16 {
                w[i] = u32::from_be_bytes([
                    block[4 * i],
                    block[4 * i + 1],
                    block[4 * i + 2],
                    block[4 * i + 3],
                ]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let mut v = state;
            for i in 0..64 {
                let s1 = v[4].rotate_right(6) ^ v[4].rotate_right(11) ^ v[4].rotate_right(25);
                let ch = (v[4] & v[5]) ^ (!v[4] & v[6]);
                let t1 = v[7]
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(super::K[i])
                    .wrapping_add(w[i]);
                let s0 = v[0].rotate_right(2) ^ v[0].rotate_right(13) ^ v[0].rotate_right(22);
                let maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
                let t2 = s0.wrapping_add(maj);
                v = [
                    t1.wrapping_add(t2),
                    v[0],
                    v[1],
                    v[2],
                    v[3].wrapping_add(t1),
                    v[4],
                    v[5],
                    v[6],
                ];
            }
            for i in 0..8 {
                state[i] = state[i].wrapping_add(v[i]);
            }
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn matches_reference_on_varied_lengths() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            assert_eq!(Sha256::digest(&data), reference_sha256(&data), "len {len}");
        }
    }

    /// A compression kernel as `update_with`/`finalize_with` take it.
    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// Every kernel this CPU can run, by name: the portable kernel always,
    /// the SHA-NI kernel when its features are detected.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> =
            vec![("portable", super::compress_blocks_portable)];
        #[cfg(target_arch = "x86_64")]
        if super::sha_ni::detected() {
            kernels.push(("sha-ni", |state, blocks| {
                // SAFETY: this closure is only built after
                // `sha_ni::detected()` confirmed `sha`, `ssse3` and
                // `sse4.1` just above.
                unsafe { super::sha_ni::compress_blocks(state, blocks) }
            }));
        }
        if kernels.len() == 1 {
            eprintln!("sha feature not detected: testing the portable kernel only");
        }
        kernels
    }

    /// Hashes `chunks`, one `update` each, with the given kernel.
    fn digest_with(chunks: &[&[u8]], kernel: Kernel) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        for chunk in chunks {
            h.update_with(chunk, kernel);
        }
        h.finalize_with(kernel)
    }

    #[test]
    fn kernels_match_fips_vectors() {
        let a_chunk = [b'a'; 1000];
        let million_a: Vec<&[u8]> = vec![&a_chunk; 1000];
        let vectors: [(&[&[u8]], &str); 5] = [
            (
                &[b""],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                &[b"abc"],
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                &[b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"],
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &[b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                    hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"],
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (name, kernel) in kernels() {
            for (i, (chunks, want)) in vectors.iter().enumerate() {
                assert_eq!(
                    hex(&digest_with(chunks, kernel)),
                    *want,
                    "{name}, vector {i}"
                );
            }
        }
    }

    #[test]
    fn kernels_match_reference_at_every_length() {
        let data: Vec<u8> = (0..1100usize).map(|i| (i * 131 % 251) as u8).collect();
        let kernels = kernels();
        for len in 0..=data.len() {
            let want = reference_sha256(&data[..len]);
            for (name, kernel) in &kernels {
                assert_eq!(
                    digest_with(&[&data[..len]], *kernel),
                    want,
                    "{name}, len {len}"
                );
            }
        }
    }

    #[test]
    fn kernels_match_reference_on_bulk_update_after_partial_block() {
        // A partly filled buffer, then one update carrying many whole
        // blocks and a ragged tail: the buffered block and the bulk run
        // reach the kernel in separate calls.
        let data: Vec<u8> = (0..4096usize + 37).map(|i| (i * 7 % 256) as u8).collect();
        let want = reference_sha256(&data);
        for (name, kernel) in kernels() {
            for head in [1, 13, 55, 56, 63, 64, 65] {
                let got = digest_with(&[&data[..head], &data[head..]], kernel);
                assert_eq!(got, want, "{name}, head {head}");
            }
        }
    }

    mod props {
        use super::*;
        use crate::testkit::run_cases;

        #[test]
        fn prop_matches_reference() {
            run_cases(48, 0x5A, |gen| {
                let data = gen.vec_u8(0, 512);
                assert_eq!(Sha256::digest(&data), reference_sha256(&data));
            });
        }

        #[test]
        fn prop_streaming_equals_oneshot() {
            run_cases(48, 0x5B, |gen| {
                let a = gen.vec_u8(0, 200);
                let b = gen.vec_u8(0, 200);
                let mut h = Sha256::new();
                h.update(&a);
                h.update(&b);
                let mut joined = a.clone();
                joined.extend_from_slice(&b);
                assert_eq!(h.finalize(), Sha256::digest(&joined));
            });
        }
    }
}
