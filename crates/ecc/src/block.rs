//! The shared code-abstraction layer: [`LinearBlockCode`].
//!
//! The HARP paper's guarantees hold for *any* systematic linear block code
//! used as on-die ECC, not just the SEC Hamming codes it evaluates. This
//! trait captures exactly what the rest of the stack needs from a code —
//! systematic encoding, syndrome computation, bounded-distance decoding with
//! the shared [`DecodeOutcome`](crate::DecodeOutcome) vocabulary, and
//! parity-check structure access — so the profilers (`harp_profiler`), the
//! reverse-engineering stack (`harp_beer`), the chip model (`harp_memsim`),
//! and the Monte-Carlo experiments (`harp_sim`) are all generic over the
//! code.
//!
//! Three implementations ship with the workspace:
//!
//! | code | crate | `t` | notes |
//! |---|---|---|---|
//! | [`HammingCode`](crate::HammingCode) | `harp_ecc` | 1 | the paper's evaluated on-die ECC |
//! | [`ExtendedHammingCode`](crate::ExtendedHammingCode) | `harp_ecc` | 1 | SEC-DED; detects (instead of miscorrecting) double errors |
//! | `BchCode` | `harp_bch` | 2 | the paper's future-work DEC scenario |
//!
//! # Hot path
//!
//! Syndrome computation dominates Monte-Carlo campaign time, so the trait
//! routes it through a per-code [`SyndromeKernel`] (a word-packed copy of the
//! parity-check matrix built once at construction). [`LinearBlockCode::syndrome`]
//! uses the kernel for single reads; burst reads (`MemoryChip::read_burst`)
//! evaluate a whole scrub pass through the kernel's bit-sliced entry point
//! and resolve each dirty word with
//! [`LinearBlockCode::decode_with_syndrome_into`].
//!
//! # Example: one campaign, three codes
//!
//! ```
//! use harp_ecc::{ExtendedHammingCode, HammingCode, LinearBlockCode};
//! use harp_gf2::BitVec;
//!
//! fn exercise<C: LinearBlockCode>(code: &C) {
//!     let data = BitVec::ones(code.data_len());
//!     let mut stored = code.encode(&data);
//!     stored.flip(2);
//!     let decoded = code.decode(&stored);
//!     assert_eq!(decoded.dataword, data);
//!     assert_eq!(decoded.outcome.corrected_positions(), &[2]);
//! }
//!
//! exercise(&HammingCode::random(64, 1)?);
//! exercise(&ExtendedHammingCode::random(64, 1)?);
//! # Ok::<(), harp_ecc::CodeError>(())
//! ```

use harp_gf2::{BitVec, Gf2Matrix, SyndromeKernel};

use crate::decoder::DecodeResult;
use crate::word::WordLayout;

/// A systematic linear block code over GF(2), as used for on-die ECC.
///
/// Systematic means codeword positions `0..k` hold the dataword verbatim and
/// positions `k..k+p` hold parity bits computed as `A · d` for the code's
/// parity block `A` (see [`LinearBlockCode::parity_block`]). Everything the
/// HARP analysis does — chargeability reasoning, error-space enumeration,
/// profiling, reverse engineering — only relies on this structure plus the
/// decoder, so implementing this trait is all it takes to carry a new code
/// scenario through every experiment in the workspace.
/// (`Debug` is a supertrait so code-generic campaign state — including the
/// resumable checkpoint engines holding boxed profilers — stays debuggable.)
pub trait LinearBlockCode: std::fmt::Debug {
    /// The systematic word layout (`k` data bits, then `p` parity bits).
    fn layout(&self) -> WordLayout;

    /// The number of simultaneous raw errors the decoder can correct (`t`).
    fn correction_capability(&self) -> usize;

    /// The binary parity-check matrix `H` with `H · c = 0` for every
    /// codeword `c`. Row count may exceed `p` in general (it equals `p` for
    /// every code in this workspace).
    fn parity_check_matrix(&self) -> &Gf2Matrix;

    /// The parity block `A` (`p × k`) of the systematic encoder:
    /// `parity = A · data`.
    fn parity_block(&self) -> &Gf2Matrix;

    /// The pre-packed syndrome kernel for this code's parity-check matrix
    /// (built once at construction; see [`SyndromeKernel`]).
    fn syndrome_kernel(&self) -> &SyndromeKernel;

    /// Bounded-distance decodes a stored codeword.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != codeword_len()`.
    fn decode(&self, stored: &BitVec) -> DecodeResult;

    /// A human-readable description (e.g. `"SEC Hamming (71, 64)"`).
    fn description(&self) -> String;

    /// Bounded-distance decodes a stored codeword whose packed syndrome has
    /// already been computed (one bit per parity-check row, as produced by
    /// [`SyndromeKernel::syndrome_word`] or the batched
    /// [`SyndromeKernel::syndrome_words_into`]), writing the result into
    /// `out`'s reusable buffers.
    ///
    /// This is the hot half of the burst read path: `MemoryChip::read_burst`
    /// computes one batched kernel pass over a whole word range and then
    /// resolves each syndrome through this method, so the steady-state decode
    /// performs no heap allocation. The result must be identical to
    /// [`LinearBlockCode::decode`] on the same stored word — `decode` stays
    /// the reference implementation, and the cross-code equivalence suite
    /// asserts the agreement.
    ///
    /// The default implementation falls back to the allocating `decode`, so
    /// new code implementations are correct before they are fast.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != codeword_len()`. `syndrome_word` must be
    /// the packed syndrome of `stored`; passing anything else is a logic
    /// error with unspecified (but memory-safe) results.
    fn decode_with_syndrome_into(
        &self,
        stored: &BitVec,
        syndrome_word: u64,
        out: &mut DecodeResult,
    ) {
        let _ = syndrome_word;
        *out = self.decode(stored);
    }

    /// Decodes a stored codeword already known to have a **zero** syndrome
    /// (a clean word), writing the result into `out`'s reusable buffers.
    ///
    /// This is the clean-word short-circuit of the bit-sliced burst read
    /// path: the batched kernel pass reports which words of a block have
    /// nonzero syndromes as a mask, and every unflagged word resolves here
    /// with no per-word syndrome state at all. Defined as
    /// `decode_with_syndrome_into(stored, 0, out)`, so it is byte-identical
    /// to the general path (and to `decode`) by construction for every
    /// implementation.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != codeword_len()`. The caller is responsible
    /// for the zero-syndrome precondition; violating it is a logic error
    /// with unspecified (but memory-safe) results.
    fn decode_clean_into(&self, stored: &BitVec, out: &mut DecodeResult) {
        self.decode_with_syndrome_into(stored, 0, out);
    }

    // ------------------------------------------------------------------
    // Provided methods.
    // ------------------------------------------------------------------

    /// Dataword length `k`.
    fn data_len(&self) -> usize {
        self.layout().data_len()
    }

    /// Codeword length `n = k + p`.
    fn codeword_len(&self) -> usize {
        self.layout().codeword_len()
    }

    /// Number of parity bits `p`.
    fn parity_len(&self) -> usize {
        self.layout().parity_len()
    }

    /// Systematically encodes a dataword into a codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != data_len()`.
    fn encode(&self, data: &BitVec) -> BitVec {
        assert_eq!(
            data.len(),
            self.data_len(),
            "dataword length mismatch: expected {}, got {}",
            self.data_len(),
            data.len()
        );
        data.concat(&self.parity_block().mul_vec(data))
    }

    /// Computes the binary syndrome `H · c` of a (possibly erroneous) stored
    /// codeword through the code's [`SyndromeKernel`].
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != codeword_len()`.
    fn syndrome(&self, stored: &BitVec) -> BitVec {
        self.syndrome_kernel().syndrome(stored)
    }

    /// Convenience wrapper: encodes `data`, XORs in `error` (a
    /// codeword-length error pattern), decodes, and returns the result.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    fn encode_corrupt_decode(&self, data: &BitVec, error: &BitVec) -> DecodeResult {
        let stored = &self.encode(data) ^ error;
        self.decode(&stored)
    }

    /// Decodes a raw error pattern directly. Because the code is linear,
    /// `decode(c ⊕ e)` flips the same positions for every codeword `c`, so
    /// analyses that only need the decoder's *behaviour* on an error pattern
    /// can decode the pattern against the all-zero codeword.
    ///
    /// # Panics
    ///
    /// Panics if `error.len() != codeword_len()`.
    fn decode_error_pattern(&self, error: &BitVec) -> DecodeResult {
        self.decode(error)
    }
}

impl<C: LinearBlockCode + ?Sized> LinearBlockCode for &C {
    fn layout(&self) -> WordLayout {
        (**self).layout()
    }

    fn correction_capability(&self) -> usize {
        (**self).correction_capability()
    }

    fn parity_check_matrix(&self) -> &Gf2Matrix {
        (**self).parity_check_matrix()
    }

    fn parity_block(&self) -> &Gf2Matrix {
        (**self).parity_block()
    }

    fn syndrome_kernel(&self) -> &SyndromeKernel {
        (**self).syndrome_kernel()
    }

    fn decode(&self, stored: &BitVec) -> DecodeResult {
        (**self).decode(stored)
    }

    fn description(&self) -> String {
        (**self).description()
    }

    fn decode_with_syndrome_into(
        &self,
        stored: &BitVec,
        syndrome_word: u64,
        out: &mut DecodeResult,
    ) {
        (**self).decode_with_syndrome_into(stored, syndrome_word, out)
    }

    fn decode_clean_into(&self, stored: &BitVec, out: &mut DecodeResult) {
        (**self).decode_clean_into(stored, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExtendedHammingCode, HammingCode};

    fn codes() -> Vec<Box<dyn LinearBlockCode>> {
        vec![
            Box::new(HammingCode::random(32, 5).unwrap()),
            Box::new(ExtendedHammingCode::random(32, 5).unwrap()),
        ]
    }

    #[test]
    fn trait_and_kernel_syndromes_agree_with_the_matrix() {
        for code in codes() {
            let data = BitVec::from_u64(32, 0xDEAD_BEEF);
            let mut stored = code.encode(&data);
            assert!(code.syndrome(&stored).is_zero(), "{}", code.description());
            stored.flip(7);
            let h = code.parity_check_matrix();
            assert_eq!(code.syndrome(&stored), h.mul_vec(&stored));
        }
    }

    #[test]
    fn encode_uses_the_parity_block() {
        for code in codes() {
            let data = BitVec::from_u64(32, 0x1234_5678);
            let codeword = code.encode(&data);
            assert_eq!(codeword.slice(0, code.data_len()), data, "systematic");
            assert_eq!(
                codeword.slice(code.data_len(), code.codeword_len()),
                code.parity_block().mul_vec(&data)
            );
        }
    }

    #[test]
    fn error_pattern_decoding_matches_any_codeword() {
        for code in codes() {
            let error = BitVec::from_indices(code.codeword_len(), [1, 4]);
            let on_zero = code.decode_error_pattern(&error);
            let data = BitVec::ones(code.data_len());
            let on_ones = code.encode_corrupt_decode(&data, &error);
            assert_eq!(on_zero.outcome, on_ones.outcome, "{}", code.description());
        }
    }

    #[test]
    fn references_implement_the_trait() {
        let code = HammingCode::random(16, 3).unwrap();
        fn takes_generic<C: LinearBlockCode>(code: C) -> usize {
            code.codeword_len()
        }
        assert_eq!(takes_generic(&code), code.codeword_len());
    }
}
